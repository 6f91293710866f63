// Package rawlog implements the gdrlint analyzer that keeps raw
// stdout/stderr logging out of the library packages. The daemon's logs are
// structured (log/slog with trace_id/tenant/session fields); a stray
// log.Printf or fmt.Println in a library package bypasses the configured
// handler entirely — wrong stream, wrong format, invisible to -log-level —
// and in a JSON-logs deployment corrupts the stream a collector is parsing.
// Only package main (the binaries under cmd/ and the examples) may talk to
// the terminal directly; everything else must take an injected *slog.Logger
// and leave rendering to the caller.
package rawlog

import (
	"go/ast"
	"go/types"
	"strings"

	"gdr/internal/lint/analysis"
)

// forbiddenLog is the set of log package functions that write through the
// process-global default logger. Methods on an explicit *log.Logger are
// allowed — constructing one is a deliberate sink choice.
var forbiddenLog = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
}

// forbiddenFmt is the set of fmt functions that write to implicit stdout.
// The Fprint* family is fine: an explicit io.Writer is not ambient output.
var forbiddenFmt = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
}

// Analyzer is the rawlog check.
var Analyzer = &analysis.Analyzer{
	Name: "rawlog",
	Doc: "forbid log.Print*/Fatal*/Panic* and fmt.Print* outside package main: " +
		"library and serving code must log through an injected *slog.Logger " +
		"so output honors the daemon's format, level and sink configuration",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Package).Filename, "_test.go") {
			continue // tests may print; the check guards production output
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods (log.Logger.Printf on an injected logger) are fine
			}
			switch fn.Pkg().Path() {
			case "log":
				if forbiddenLog[fn.Name()] {
					pass.Reportf(call.Pos(),
						"call to log.%s in package %s: raw default-logger output bypasses the daemon's structured logging; take a *slog.Logger instead",
						fn.Name(), pass.Pkg.Name())
				}
			case "fmt":
				if forbiddenFmt[fn.Name()] {
					pass.Reportf(call.Pos(),
						"call to fmt.%s in package %s: writing to ambient stdout from a library corrupts structured log streams; return the value or write to an explicit io.Writer",
						fn.Name(), pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}
