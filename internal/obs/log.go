package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds the daemon's structured logger. format selects the
// handler ("text" or "json"; "" = text), level the minimum severity
// ("debug", "info", "warn", "error"; "" = info).
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	lvl, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: log format %q (want text|json)", format)
	}
}

// ParseLevel maps a level name to its slog.Level ("" = info).
func ParseLevel(level string) (slog.Level, error) {
	switch strings.ToLower(level) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: log level %q (want debug|info|warn|error)", level)
	}
}
