package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadiness runs each workload n times in child processes of this
// binary, with seeds 1..n, and prints each metric's median, quartiles
// and quartile spread as a share of the median — the figures the
// benchmark's bounds are set from. Below them it prints the same for
// the times before the host's speed and steal were scaled out.
func steadiness(cfg config, n int, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	defs := endToEnd
	trace := "0"
	if cfg.trace {
		defs, trace = perLayer, "1"
	}
	for _, name := range names {
		values := map[string][]float64{}
		for seed := 1; seed <= n; seed++ {
			args := []string{"-workload", name, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(cfg.seconds), "-trace", trace}
			if cfg.workdir != "" {
				args = append(args, "-workdir", cfg.workdir)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			s, err := lastSummary(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !s.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", name, seed, s.Failed, s.Attempted)
			}
			for k, v := range s.Metrics {
				values[k] = append(values[k], v.Value)
			}
			for k, v := range unscaled(stdout) {
				values[k+" (unscaled)"] = append(values[k+" (unscaled)"], v)
			}
		}
		fmt.Fprintf(out, "%s: %d runs of %d s\n", name, n, cfg.seconds)
		fmt.Fprintf(out, "  %-30s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "runs")
		var rows []string
		for _, def := range defs {
			rows = append(rows, def.name)
		}
		for _, def := range defs {
			if _, ok := values[def.name+" (unscaled)"]; ok {
				rows = append(rows, def.name+" (unscaled)")
			}
		}
		for _, row := range rows {
			vs := values[row]
			q1, q2, q3 := quartiles(vs)
			fmt.Fprintf(out, "  %-30s %12.6g %12.6g %12.6g %7.1f%%  %.4g\n", row, q1, q2, q3, 100*ratio(q3-q1, q2), vs)
		}
	}
	return nil
}

// unscaled reads a run's "unscaled <metric> <value>" lines.
func unscaled(stdout []byte) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "unscaled" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				m[f[1]] = v
			}
		}
	}
	return m
}

// lastSummary parses the JSON summary on the last line of a run's
// standard output.
func lastSummary(stdout []byte) (*summary, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var s summary
	if err := json.Unmarshal(last, &s); err != nil {
		return nil, fmt.Errorf("no summary line: %w", err)
	}
	return &s, nil
}
