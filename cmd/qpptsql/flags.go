package main

import (
	"errors"
	"flag"

	"qppt"
	"qppt/internal/spill"
)

// execFlags holds the engine flags after parsing: worker pool size,
// memory budget, chunk-pool cap, the recycler oracle switch, admission
// control and the statement cache.
type execFlags struct {
	Workers    int
	MemBudget  string
	RecycleCap string
	NoRecycle  bool
	MaxPlans   int
	QueueDepth int
	StmtCache  int
}

// register declares the engine flags on fs (use flag.CommandLine for the
// process flag set). The returned struct is filled by fs.Parse.
func register(fs *flag.FlagSet) *execFlags {
	e := &execFlags{}
	fs.IntVar(&e.Workers, "workers", 1, "shared worker pool size for morsel-driven parallel execution (1 = serial, -1 = GOMAXPROCS)")
	fs.StringVar(&e.MemBudget, "membudget", "", "intermediate-index memory budget (e.g. 256MiB); empty = unlimited, no spilling")
	fs.BoolVar(&e.NoRecycle, "norecycle", false, "disable the engine's cross-plan chunk recycler (on by default)")
	fs.StringVar(&e.RecycleCap, "recyclecap", "", "byte cap on the engine chunk pool (e.g. 256MiB); empty = engine default")
	fs.IntVar(&e.MaxPlans, "max-plans", 0, "admission cap on concurrently executing plans (0 = unlimited, no admission control)")
	fs.IntVar(&e.QueueDepth, "queue-depth", 0, "per-session admission queue depth before queries are shed with ErrOverloaded (0 = default; needs -max-plans)")
	fs.IntVar(&e.StmtCache, "stmtcache", 0, "per-connection prepared-statement cache capacity (0 = default, negative disables)")
	return e
}

// serveFlags holds the serving-tier addresses.
type serveFlags struct {
	Listen string
	HTTP   string
}

// registerServe declares the serving-tier flags on fs: -listen runs the
// binary wire protocol, -serve the HTTP adapter layered over it. Both
// may be given together; either replaces the interactive shell.
func registerServe(fs *flag.FlagSet) *serveFlags {
	s := &serveFlags{}
	fs.StringVar(&s.Listen, "listen", "", "serve the QPPT wire protocol on this TCP address (e.g. :5477) instead of the interactive shell")
	fs.StringVar(&s.HTTP, "serve", "", "serve HTTP queries on this address (e.g. :8080) as a thin adapter over the wire server")
	return s
}

// serving reports whether any serving-tier address was given.
func (s *serveFlags) serving() bool { return s.Listen != "" || s.HTTP != "" }

// engineConfig resolves the flags into the engine configuration. A flag
// combination the engine would silently ignore is an error here: the
// command line is where a typo should surface.
func (e *execFlags) engineConfig() (qppt.Config, error) {
	if e.QueueDepth > 0 && e.MaxPlans == 0 {
		return qppt.Config{}, errors.New("-queue-depth needs -max-plans")
	}
	cfg := qppt.Config{
		Workers:        e.Workers,
		DisableRecycle: e.NoRecycle,
		MaxPlans:       e.MaxPlans,
		QueueDepth:     e.QueueDepth,
		StmtCache:      e.StmtCache,
	}
	var err error
	if e.MemBudget != "" {
		if cfg.MemBudget, err = spill.ParseBytes(e.MemBudget); err != nil {
			return qppt.Config{}, err
		}
	}
	if e.RecycleCap != "" {
		if cfg.RecycleCap, err = spill.ParseBytes(e.RecycleCap); err != nil {
			return qppt.Config{}, err
		}
	}
	return cfg, nil
}
