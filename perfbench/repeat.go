package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns runs a workload n times, each in a child process of this
// binary with its own seed, and prints every metric's median and quartiles
// plus the spread (Q3-Q1)/median. Quartiles follow Python's
// statistics.quantiles(values, n=4) so the figures match an outside check.
func repeatRuns(workload string, seed int64, seconds float64, trace, n int, out string) error {
	names := []string{workload}
	if workload == "all" {
		names = []string{"pipeline", "serve", "graphs_rw"}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
		vals := map[string][]float64{}
		units := map[string]string{}
		attempted, failed := 0, 0
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-out", out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			rep, err := lastReport(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: outputs failed their checks", w, s)
			}
			attempted += rep.Attempted
			failed += rep.Failed
			fmt.Fprintf(os.Stderr, "%s seed %d: attempted %d failed %d", w, s, rep.Attempted, rep.Failed)
			for _, m := range endToEnd {
				if v, ok := rep.Metrics[m.name]; ok {
					fmt.Fprintf(os.Stderr, " %s=%.4g", m.name, v.Value)
				}
			}
			fmt.Fprintln(os.Stderr)
			for name, m := range rep.Metrics {
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
		}
		fmt.Printf("workload %s: %d runs, seeds %d..%d, %d ops attempted, %d failed\n",
			w, n, seed, seed+int64(n)-1, attempted, failed)
		fmt.Printf("  %-40s %12s %12s %12s %8s  unit\n", "metric", "q1", "median", "q3", "spread")
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			q1, med, q3 := quartiles(vals[k])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-40s %12.6g %12.6g %12.6g %8.4f  %s\n", k, q1, med, q3, spread, units[k])
		}
	}
	return nil
}

// lastReport decodes the JSON object on the last non-empty stdout line.
func lastReport(stdout []byte) (*report, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	rep := &report{}
	if err := json.Unmarshal(last, rep); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return rep, nil
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with its
// default 'exclusive' method.
func quartiles(data []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var res [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		res[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return res[0], res[1], res[2]
}
