package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// quartiles returns the first and third quartile of values the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the spreads
// printed here are the ones the benchmark contract is judged by. It needs
// at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median; 0 for fewer
// than two values, where there is nothing to measure it from.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// A side is the timed runs of one side of a comparison, from one or more
// records (several invocations on one commit, so that the side carries its
// own run-to-run spread).
type side struct {
	label string
	runs  []*result
}

func readSide(paths []string) (*side, error) {
	sd := &side{}
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(buf, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sd.label += fmt.Sprintf(" %s (commit %s, seed %d)", path, rec.Env.Commit, rec.Env.Seed)
		for _, r := range rec.Runs {
			if r.Trace == 0 {
				sd.runs = append(sd.runs, r)
			}
		}
	}
	return sd, nil
}

// values collects one end-to-end metric of one workload over the side's runs.
func (sd *side) values(workload, name string) []float64 {
	var out []float64
	for _, r := range sd.runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// failures counts the failed requests of one workload over the side's runs.
func (sd *side) failures(workload string) (failed, attempted int) {
	for _, r := range sd.runs {
		if r.Workload == workload {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
	}
	return failed, attempted
}

// compareRecords prints one row per (end-to-end metric, workload) present on
// both sides, judging b against a by the metric's bound: better, within
// bound, worse, or unresolved when either side's own run-to-run spread is
// wider than the bound. A workload with a larger share of failed requests
// on side b is worse whatever the bound of ok_share lets through. It reports
// whether any row is worse.
func compareRecords(w io.Writer, aPaths, bPaths []string) (worse bool, err error) {
	a, err := readSide(aPaths)
	if err != nil {
		return false, err
	}
	b, err := readSide(bPaths)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a:%s\nb:%s\n", a.label, b.label)
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s %7s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "a spread", "b spread", "verdict")
	rows := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			av, bv := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			rows++
			am, bm := median(av), median(bv)
			// Positive means b is worse than a, whichever way the metric points.
			worsening := (bm - am) / am
			if d.Better == "higher" {
				worsening = -worsening
			}
			sa, sb := spread(av), spread(bv)
			verdict := "within bound"
			switch {
			case max(sa, sb) > d.Bound:
				verdict = "unresolved"
			case worsening > d.Bound:
				verdict, worse = "WORSE", true
			case worsening < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-12s %-20s %14.4f %14.4f %+8.2f%% %8.4f%% %7.2f%% %7.2f%%  %s (n=%d,%d)\n",
				wl.name, d.Name, am, bm, 100*(bm-am)/am, 100*d.Bound, 100*sa, 100*sb, verdict, len(av), len(bv))
		}
		af, an := a.failures(wl.name)
		bf, bn := b.failures(wl.name)
		if an == 0 || bn == 0 {
			continue
		}
		verdict := "within bound"
		if float64(bf)/float64(bn) > float64(af)/float64(an) {
			verdict, worse = "WORSE", true
		}
		fmt.Fprintf(w, "%-12s %-20s %14s %14s %37s  %s\n", wl.name, "failed/attempted",
			fmt.Sprintf("%d/%d", af, an), fmt.Sprintf("%d/%d", bf, bn), "any rise", verdict)
	}
	if rows == 0 {
		return false, fmt.Errorf("the two sides share no timed run of any workload")
	}
	return worse, nil
}
