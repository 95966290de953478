package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// The -compare mode applies the gain and regression rules to two sets of
// run records of the same benchmark settings, one from the parent commit
// and one from the change, for every metric and workload:
//
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - improved: the change wins at least nine tenths of the run pairs
//     (ties count for neither side), its median is better by more than
//     the parent's interquartile distance, at least ten pairs ran, and
//     no more operations failed than at the parent;
//   - unresolved: the parent's own runs spread wider than the bound, and
//     not every change run beats every parent run — or a gain that fails
//     the pair count or the failure rule;
//   - unchanged: everything else.
//
// Run i of the parent pairs with run i of the change, per workload, in
// file order; interleave the two sides when producing the files.

// minPairs is the number of pairs a gain needs.
const minPairs = 10

// winShare is the share of pairs a gain must win.
const winShare = 0.9

// readRecords loads every record line of a file; other lines (result
// lines, logs) are skipped.
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Record != recordTag {
			continue
		}
		out = append(out, &r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// groupKey is one (workload, traced) row group.
type groupKey struct {
	workload string
	trace    int
}

func groupRecords(rs []*record) map[groupKey][]*record {
	out := map[groupKey][]*record{}
	for _, r := range rs {
		k := groupKey{r.Workload, r.Trace}
		out[k] = append(out[k], r)
	}
	return out
}

// verdict is the outcome for one metric on one workload.
type verdict struct {
	metric             string
	parentMed, change  float64
	pq1, pq3, cq1, cq3 float64
	wins, pairs        int
	worse              float64 // relative worsening of the change's median (negative: better)
	outcome            string
}

// judge compares one metric's parent and change readings.
func judge(d metricDef, parent, change []float64, moreFailures bool) verdict {
	v := verdict{metric: d.Name, parentMed: median(parent), change: median(change)}
	v.pq1, v.pq3 = quartiles(parent)
	v.cq1, v.cq3 = quartiles(change)
	better := func(c, p float64) bool {
		if d.higherIsBetter() {
			return c > p
		}
		return c < p
	}
	v.pairs = min(len(parent), len(change))
	for i := 0; i < v.pairs; i++ {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	diff := v.change - v.parentMed
	if d.higherIsBetter() {
		diff = -diff
	}
	v.worse = ratio(diff, math.Abs(v.parentMed))
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	iqr := v.pq3 - v.pq1
	gain := better(v.change, v.parentMed) && math.Abs(v.change-v.parentMed) > iqr &&
		float64(v.wins) >= winShare*float64(v.pairs) && v.pairs > 0
	switch {
	case v.worse > d.Bound:
		v.outcome = "regressed"
	case gain && v.pairs >= minPairs && !moreFailures:
		v.outcome = "improved"
	case gain:
		v.outcome = "unresolved"
	case ratio(iqr, math.Abs(v.parentMed)) > d.Bound && !allBetter:
		v.outcome = "unresolved"
	default:
		v.outcome = "unchanged"
	}
	return v
}

// failureShare is failed over attempted across a group's runs.
func failureShare(rs []*record) float64 {
	var a, f int
	for _, r := range rs {
		a += r.Attempted
		f += r.Failed
	}
	return ratio(float64(f), float64(a))
}

func readings(rs []*record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func runCompare(parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readRecords(parentPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitError
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitError
	}
	pg, cg := groupRecords(parent), groupRecords(change)
	var keys []groupKey
	for k := range pg {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no workload")
		return exitError
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	regressed := false
	for _, k := range keys {
		p, c := pg[k], cg[k]
		pf, cf := failureShare(p), failureShare(c)
		fmt.Fprintf(stdout, "%s trace=%d: %d parent runs, %d change runs; failure share %.4g -> %.4g\n",
			k.workload, k.trace, len(p), len(c), pf, cf)
		if len(p) < minPairs || len(c) < minPairs {
			fmt.Fprintf(stdout, "  (fewer than %d runs a side: no gain can be claimed)\n", minPairs)
		}
		fmt.Fprintf(stdout, "  %-36s %12s %12s %12s %12s %8s %9s  %s\n",
			"metric", "parent p50", "parent IQR", "change p50", "change IQR", "won", "worse by", "verdict")
		for _, d := range metricTable {
			pv, cv := readings(p, d.Name), readings(c, d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v := judge(d, pv, cv, cf > pf)
			outcome := v.outcome
			if d.Kind == layer || d.Kind == layerCost {
				outcome = "(layer)"
			} else if outcome == "regressed" {
				regressed = true
			}
			fmt.Fprintf(stdout, "  %-36s %12.6g %12.6g %12.6g %12.6g %4d/%-3d %8.2f%%  %s\n",
				d.Name, v.parentMed, v.pq3-v.pq1, v.change, v.cq3-v.cq1, v.wins, v.pairs, 100*v.worse, outcome)
		}
	}
	if regressed {
		return exitWrong
	}
	return exitOK
}
