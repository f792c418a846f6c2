// Command benchjson parses `go test -bench` output on stdin and merges it
// into a JSON results file as a labelled section, so successive runs
// (baseline, fastpath, ...) accumulate side by side:
//
//	go test -run '^$' -bench Scalability -benchmem . | \
//	    go run ./scripts/benchjson -label fastpath -out BENCH_gateway.json
//
// Input lines are echoed to stdout so the tool can sit at the end of a
// pipe without hiding the benchmark output. Each recorded section also
// gets a provenance entry: the core count and Go version of the machine
// that recorded it, with the preamble's CPU model and packages.
//
// Results are keyed by the full benchmark name including the -N suffix go
// test appends when GOMAXPROCS > 1, and each result records its CPU count
// under "cpus" — so one file can hold the same benchmark at several -cpu
// values, and the gate only ever compares like-for-like counts.
//
// With -compare the tool gates instead of recording: fresh results on
// stdin are diffed against the named stored section and the run fails
// (exit 1) when any benchmark's allocs/op regresses by more than
// -max-allocs-regress percent. ns/op deltas are reported but not gated —
// wall time on shared CI machines is too noisy to fail a build over:
//
//	go test -run '^$' -bench ScalabilityGateway -benchmem . | \
//	    go run ./scripts/benchjson -compare fastpath -out BENCH_gateway.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric names as they appear in benchmark output, mapped to JSON keys.
var unitKey = map[string]string{
	"ns/op":     "ns_op",
	"B/op":      "bytes_op",
	"allocs/op": "allocs_op",
	"MB/s":      "mb_s",
}

type result map[string]float64

type doc struct {
	Env      map[string]string            `json:"env,omitempty"`
	Sections map[string]map[string]result `json:"sections"`
	// Provenance records, per section, the machine and toolchain that
	// produced it: core count, Go version, CPU model and packages.
	Provenance map[string]map[string]string `json:"provenance,omitempty"`
}

func main() {
	label := flag.String("label", "", "section name to store results under")
	out := flag.String("out", "BENCH_gateway.json", "JSON file to merge into (or compare against)")
	compare := flag.String("compare", "", "gate mode: compare stdin results against this stored section instead of recording")
	maxAllocs := flag.Float64("max-allocs-regress", 5, "with -compare: maximum allowed allocs/op regression in percent")
	maxRecovery := flag.Float64("max-recovery-regress", 5, "with -compare: maximum allowed recovery_ms regression in percent")
	maxSpecimens := flag.Float64("max-specimens-regress", 5, "with -compare: maximum allowed specimens/day decrease in percent")
	maxLockdown := flag.Float64("max-lockdown-regress", 5, "with -compare: maximum allowed lockdown_ms regression in percent")
	flag.Parse()
	if (*label == "") == (*compare == "") {
		fmt.Fprintln(os.Stderr, "benchjson: exactly one of -label or -compare is required")
		os.Exit(2)
	}

	d := doc{Env: map[string]string{}, Sections: map[string]map[string]result{}}
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &d); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *out, err)
			os.Exit(1)
		}
		if d.Sections == nil {
			d.Sections = map[string]map[string]result{}
		}
		if d.Env == nil {
			d.Env = map[string]string{}
		}
	} else if *compare != "" {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	section := map[string]result{}
	prov := map[string]string{
		"nproc": strconv.Itoa(runtime.NumCPU()),
		"go":    runtime.Version(),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if env, val, ok := strings.Cut(line, ": "); ok && !strings.Contains(env, " ") {
			// "goos: linux", "pkg: gq", "cpu: ..." preamble lines. A run
			// over several packages prints one pkg line for each.
			if env == "pkg" {
				prov[env] = strings.TrimPrefix(prov[env]+" "+val, " ")
				continue
			}
			d.Env[env] = val
			prov[env] = val
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		// The full name — including the -N GOMAXPROCS suffix `go test -cpu`
		// appends — is the key, so one section can hold the same benchmark
		// at several CPU counts side by side. The count is also recorded as
		// the "cpus" metric (no suffix means GOMAXPROCS=1).
		name := fields[0]
		r := result{"cpus": 1}
		if n := maxProcsSuffix(name); n > 0 {
			r["cpus"] = float64(n)
		}
		if iters, err := strconv.ParseFloat(fields[1], 64); err == nil {
			r["iterations"] = iters
		}
		// Remaining fields come in "<value> <unit>" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			key, ok := unitKey[fields[i+1]]
			if !ok {
				// Custom b.ReportMetric units (e.g. "verdicts").
				key = strings.NewReplacer("/", "_", ".", "_").Replace(fields[i+1])
			}
			r[key] = v
		}
		if len(r) > 2 { // more than the implicit cpus + iterations
			section[name] = r
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}
	if len(section) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	if *compare != "" {
		os.Exit(compareSections(d.Sections[*compare], section, *compare, *maxAllocs, *maxRecovery, *maxSpecimens, *maxLockdown))
	}
	d.Sections[*label] = section
	if d.Provenance == nil {
		d.Provenance = map[string]map[string]string{}
	}
	d.Provenance[*label] = prov

	enc, err := json.MarshalIndent(&d, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote section %q (%d benchmarks) to %s\n",
		*label, len(section), *out)
}

// compareSections gates fresh results against a stored baseline section.
// allocs/op may not regress more than maxAllocsPct percent (a baseline of
// zero allocs must stay zero), recovery_ms — virtual supervisor recovery
// time, deterministic for a pinned seed — not more than maxRecoveryPct,
// specimens_day — virtual recycling throughput, where higher is better —
// may not DECREASE more than maxSpecimensPct, and lockdown_ms — the
// virtual kill-to-global-dead-man escalation time, equally deterministic
// — not more than maxLockdownPct. ns/op deltas are printed for the
// record but never fail the gate. Returns the process exit code.
func compareSections(baseline, fresh map[string]result, name string, maxAllocsPct, maxRecoveryPct, maxSpecimensPct, maxLockdownPct float64) int {
	if len(baseline) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no baseline section %q to compare against\n", name)
		return 1
	}
	failed := 0
	compared := 0
	for _, bench := range sortedKeys(fresh) {
		base, ok := baseline[bench]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %s: not in baseline section %q, skipping\n", bench, name)
			continue
		}
		// Only like-for-like CPU counts compare: the full name carries the
		// -N GOMAXPROCS suffix, so a name match normally implies a cpus
		// match — but a baseline recorded before cpus were tracked gets one
		// chance to mismatch, and we refuse to gate across that.
		if bc, fc := base["cpus"], fresh[bench]["cpus"]; bc != 0 && fc != 0 && bc != fc {
			fmt.Fprintf(os.Stderr, "benchjson: %s: baseline at %.0f cpus, fresh at %.0f — not comparable, skipping\n",
				bench, bc, fc)
			continue
		}
		compared++
		oldAllocs, newAllocs := base["allocs_op"], fresh[bench]["allocs_op"]
		status := "ok"
		switch {
		case oldAllocs == 0 && newAllocs > 0:
			status = "FAIL"
			failed++
		case oldAllocs > 0 && (newAllocs-oldAllocs)/oldAllocs*100 > maxAllocsPct:
			status = "FAIL"
			failed++
		}
		line := fmt.Sprintf("benchjson: %-44s allocs/op %.0f -> %.0f", bench, oldAllocs, newAllocs)
		if oldRec, newRec := base["recovery_ms"], fresh[bench]["recovery_ms"]; oldRec > 0 {
			if (newRec-oldRec)/oldRec*100 > maxRecoveryPct {
				status = "FAIL"
				failed++
			}
			line += fmt.Sprintf("  recovery_ms %.0f -> %.0f", oldRec, newRec)
		}
		if oldSpec, newSpec := base["specimens_day"], fresh[bench]["specimens_day"]; oldSpec > 0 {
			if (oldSpec-newSpec)/oldSpec*100 > maxSpecimensPct {
				status = "FAIL"
				failed++
			}
			line += fmt.Sprintf("  specimens/day %.0f -> %.0f", oldSpec, newSpec)
		}
		if oldLock, newLock := base["lockdown_ms"], fresh[bench]["lockdown_ms"]; oldLock > 0 {
			if (newLock-oldLock)/oldLock*100 > maxLockdownPct {
				status = "FAIL"
				failed++
			}
			line += fmt.Sprintf("  lockdown_ms %.0f -> %.0f", oldLock, newLock)
		}
		if oldNs := base["ns_op"]; oldNs > 0 {
			line += fmt.Sprintf("  ns/op %+.1f%%", (fresh[bench]["ns_op"]-oldNs)/oldNs*100)
		}
		fmt.Fprintf(os.Stderr, "%s  [%s]\n", line, status)
	}
	if compared == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: nothing to compare against section %q\n", name)
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: %d benchmark(s) regressed beyond the gate (allocs/op %.0f%%, recovery_ms %.0f%%) vs section %q\n",
			failed, maxAllocsPct, maxRecoveryPct, name)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: ok: %d benchmark(s) within %.0f%% allocs/op of section %q\n",
		compared, maxAllocsPct, name)
	return 0
}

// sortedKeys returns a map's keys in sorted order for stable output.
func sortedKeys(m map[string]result) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// maxProcsSuffix extracts the trailing -N GOMAXPROCS marker from a
// benchmark name, or 0 if there is none.
func maxProcsSuffix(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return 0
	}
	return n
}
