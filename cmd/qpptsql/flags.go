package main

import (
	"flag"

	"qppt"
	"qppt/internal/spill"
)

// execFlags holds the engine flags after parsing: worker pool size,
// memory budget and admission control.
type execFlags struct {
	Workers   int
	MemBudget string
	MaxPlans  int
}

// register declares the engine flags on fs (use flag.CommandLine for the
// process flag set). The returned struct is filled by fs.Parse.
func register(fs *flag.FlagSet) *execFlags {
	e := &execFlags{}
	fs.IntVar(&e.Workers, "workers", 1, "shared worker pool size for morsel-driven parallel execution (1 = serial, -1 = GOMAXPROCS)")
	fs.StringVar(&e.MemBudget, "membudget", "", "intermediate-index memory budget (e.g. 256MiB); empty = unlimited, no spilling")
	fs.IntVar(&e.MaxPlans, "max-plans", 0, "admission cap on concurrently executing plans (0 = unlimited, no admission control)")
	return e
}

// shellFlags holds the command's own flags: the dataset's scale factor
// and whether the shell starts with statistics on.
type shellFlags struct {
	SF    float64
	Stats bool
}

// registerShell declares the command's own flags on fs.
func registerShell(fs *flag.FlagSet) *shellFlags {
	s := &shellFlags{}
	fs.Float64Var(&s.SF, "sf", 0.05, "SSB scale factor")
	fs.BoolVar(&s.Stats, "stats", false, "print per-operator statistics")
	return s
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

// engineConfig resolves the flags into the engine configuration. A byte
// size the engine would misread is an error here: the command line is
// where a typo should surface.
func (e *execFlags) engineConfig() (qppt.Config, error) {
	cfg := qppt.Config{Workers: e.Workers, MaxPlans: e.MaxPlans}
	if e.MemBudget != "" {
		var err error
		if cfg.MemBudget, err = spill.ParseBytes(e.MemBudget); err != nil {
			return qppt.Config{}, err
		}
	}
	return cfg, nil
}
