// Command gdrbench regenerates the paper's evaluation figures.
//
//	gdrbench -figure 3 -dataset 1            # Figure 3(a)
//	gdrbench -figure 4 -dataset 2 -n 20000   # Figure 4(b) at paper scale
//	gdrbench -figure all -dataset all -n 5000
//
// Each figure prints as an aligned text table: one row per x value, one
// column per strategy/series — the same curves the paper plots. Absolute
// numbers differ from the paper (synthetic substitute datasets, simulated
// user); the shapes are the reproduction target. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"gdr"
	"gdr/internal/experiments"
	"gdr/internal/par"
)

func main() {
	var (
		figure  = flag.String("figure", "all", "3 | 4 | 5 | all")
		ds      = flag.String("dataset", "all", "1 | 2 | all")
		n       = flag.Int("n", 20000, "records per dataset")
		seed    = flag.Int64("seed", 7, "random seed")
		rate    = flag.Float64("dirty", 0.3, "fraction of perturbed tuples")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines, split across (dataset, figure) jobs, figure cells and session internals (1 = serial; output is identical either way)")
		verbose = flag.Bool("v", false, "print progress to stderr")
	)
	flag.Parse()
	if err := run(*figure, *ds, *n, *seed, *rate, *workers, *verbose, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdrbench:", err)
		os.Exit(1)
	}
}

// run fans the whole request out three levels deep on one worker budget:
// every (dataset, figure) pair is an independent job on the pool; inside a
// job, the figure's cells divide the job's share; inside a cell, the
// session takes what is left. Results are rendered in request order —
// dataset-major, figure-minor — whatever order jobs finish in, so the
// output is byte-identical at any worker count.
func run(figure, ds string, n int, seed int64, rate float64, workers int, verbose bool, w io.Writer) error {
	workers = par.Workers(workers)
	var datasets []int
	switch ds {
	case "1":
		datasets = []int{1}
	case "2":
		datasets = []int{2}
	case "all":
		datasets = []int{1, 2}
	default:
		return fmt.Errorf("unknown dataset %q", ds)
	}
	var figures []string
	switch figure {
	case "3", "4", "5":
		figures = []string{figure}
	case "all":
		figures = []string{"3", "4", "5"}
	default:
		return fmt.Errorf("unknown figure %q", figure)
	}

	// Materialize each dataset once, shared by its figures (runs only read
	// it: every cell repairs a clone). Generation itself is serial per
	// dataset, so the two datasets are simply generated concurrently.
	baseCfg := gdr.FigureConfig{N: n, Seed: seed, DirtyRate: rate}
	data := make([]*gdr.Data, len(datasets))
	if err := par.ForEach(workers, len(datasets), func(i int) error {
		if verbose {
			fmt.Fprintf(os.Stderr, "generating dataset %d (n=%d)...\n", datasets[i], n)
		}
		d, err := experiments.Dataset(datasets[i], baseCfg)
		if err != nil {
			return err
		}
		data[i] = d
		return nil
	}); err != nil {
		return err
	}

	// One job per (dataset, figure) pair; each job gets an equal slice of
	// the budget for its cells and sessions. The split rounds up: with 6
	// jobs on 8 workers, flooring to 1 inner worker would strand 2 cores
	// for the whole run, while the mild oversubscription from rounding up
	// just time-shares.
	type job struct{ di, fi int }
	var jobs []job
	for di := range datasets {
		for fi := range figures {
			jobs = append(jobs, job{di, fi})
		}
	}
	concurrent := min(len(jobs), workers)
	jobCfg := baseCfg
	jobCfg.Workers = par.Workers((workers + concurrent - 1) / concurrent)
	figs := make([]gdr.Figure, len(jobs))
	if err := par.ForEach(workers, len(jobs), func(i int) error {
		j := jobs[i]
		if verbose {
			fmt.Fprintf(os.Stderr, "running figure %s on dataset %d...\n", figures[j.fi], datasets[j.di])
		}
		var fig gdr.Figure
		var err error
		switch figures[j.fi] {
		case "3":
			fig, err = gdr.Figure3(data[j.di], jobCfg)
		case "4":
			fig, err = gdr.Figure4(data[j.di], jobCfg)
		case "5":
			fig, err = gdr.Figure5(data[j.di], jobCfg)
		}
		if err != nil {
			return err
		}
		figs[i] = fig
		return nil
	}); err != nil {
		return err
	}

	for _, fig := range figs {
		if err := fig.Render(w); err != nil {
			return err
		}
	}
	return nil
}
