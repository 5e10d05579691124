// Command tqsim regenerates the scheduling figures of the Tiny Quanta
// paper from the discrete-event machine models: the §2 motivation
// simulations (Figures 1-2), the policy comparison (Figure 4), TQ's
// quantum sweep (Figures 5-6), the cross-system comparisons (Figures
// 7-10), the ablation breakdowns (Figures 11-12), the dispatcher
// scalability study (Figure 16), and the §6 dispatcher-throughput
// microbenchmark.
//
// Output is tab-separated: label, x, y — one block per curve —
// suitable for plotting or diffing against EXPERIMENTS.md.
//
// Usage:
//
//	tqsim -fig 7                 # one figure at full scale
//	tqsim -fig all -quick        # everything, reduced duration
//	tqsim -fig dispatcher        # §6 microbenchmark
//	tqsim -rack 10 -route random,sew  # routing policies over a 10-machine fleet
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pifo"
	"repro/internal/rack"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 1,2,4,5,6,7,8,9,10,11,12,16,table1,dispatcher,all")
	quick := flag.Bool("quick", false, "run at reduced simulated duration")
	seed := flag.Uint64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "sweep worker pool size: 0 = GOMAXPROCS, 1 = sequential")
	progress := flag.Bool("progress", false, "print per-point sweep progress to stderr")
	traceOut := flag.String("trace", "", "write a Perfetto-loadable TQ-vs-Shinjuku comparison timeline to this file and exit")
	metricsOut := flag.String("metrics", "", "write a windowed scheduling time series (TSV) of a short TQ run to this file and exit")
	slo := flag.String("slo", "", `per-class sojourn SLOs for goodput, e.g. "GET=50us,SCAN=1ms" or a bare "100us" for all classes`)
	machines := flag.String("machines", "", `comma-separated registry machines to sweep side by side, e.g. "tq,shinjuku,caladan-ws,ct-ps"; "list" prints the catalogue`)
	discipline := flag.String("discipline", "", `queue discipline for -machines (machines with a discipline knob only); "list" prints the catalogue`)
	gap := flag.Bool("gap", false, "print the optimality-gap table (p99 sojourn vs the clairvoyant oracle-srpt) for the -machines list (default: every registry machine) on -workload")
	workloadName := flag.String("workload", "HighBimodal", "workload for -machines and -rack (names as in -fig table1)")
	arrivals := flag.String("arrivals", "", `arrival process for every sweep, e.g. "mmpp:burst=10,duty=0.1,cycle=1ms"; empty = the paper's Poisson; "list" prints the catalogue`)
	svc := flag.String("svc", "", `single-class service law overriding -workload for -machines/-gap/-rack, e.g. "pareto:mean=10us,alpha=1.4"; "list" prints the catalogue`)
	tenants := flag.String("tenants", "", `tenant split "name=ratio[@share],..." e.g. "big=0.9@0.5,small=0.1@0.25"; adds per-tenant ledgers to every run`)
	rackN := flag.Int("rack", 0, "fleet size: sweep -route routing policies over N-machine fleets of each -machines machine (default fleet machine: tq)")
	route := flag.String("route", "random,p2c,least,sew", `comma-separated routing policies for -rack; "list" prints the catalogue`)
	flag.Parse()
	if *route == "list" {
		for _, n := range rack.RouterNames() {
			fmt.Println(n)
		}
		return
	}
	if *machines == "list" {
		for _, n := range cluster.Names() {
			e, _ := cluster.Lookup(n)
			knob := " "
			if e.TakesDiscipline {
				knob = "D" // takes -discipline
			}
			fmt.Printf("%-20s %s %s\n", n, knob, e.Summary)
		}
		return
	}
	if *discipline == "list" {
		for _, n := range pifo.Names() {
			fmt.Println(n)
		}
		return
	}
	if *arrivals == "list" {
		for _, n := range workload.ArrivalNames() {
			fmt.Println(n)
		}
		return
	}
	if *svc == "list" {
		for _, n := range workload.ServiceNames() {
			fmt.Println(n)
		}
		return
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "tqsim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote TQ-vs-Shinjuku timeline to %s (open in https://ui.perfetto.dev, or run: tqtrace summarize %s)\n",
			*traceOut, *traceOut)
		return
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "tqsim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote windowed scheduling metrics to %s\n", *metricsOut)
		return
	}
	if *fig == "" && *machines == "" && *rackN <= 0 && !*gap {
		flag.Usage()
		os.Exit(2)
	}
	sc := experiments.Full
	if *quick {
		sc = experiments.Quick
	}
	sc.Seed = *seed
	sc.Workers = *parallel
	if *slo != "" {
		slos, err := parseSLOs(*slo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqsim:", err)
			os.Exit(2)
		}
		sc.SLOs = slos
		showGoodput = true
	}
	if *arrivals != "" {
		// Validate the spec up front (any positive rate does) so typos
		// fail here with the parser's message, not mid-sweep as a panic.
		if _, err := workload.ParseArrivals(*arrivals, 1e6); err != nil {
			fmt.Fprintln(os.Stderr, "tqsim:", err)
			os.Exit(2)
		}
		sc.Arrivals = *arrivals
	}
	if *tenants != "" {
		ts, err := workload.ParseTenants(*tenants)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqsim:", err)
			os.Exit(2)
		}
		sc.Tenants = ts
	}
	if *svc != "" {
		w, err := workload.FromLaw(*svc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqsim:", err)
			os.Exit(2)
		}
		svcWorkload = w
	}
	if *progress {
		sc.Progress = func(p cluster.SweepPoint) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s rate=%.3gMrps wall=%s %.2gM events/s\n",
				p.Done, p.Total, p.Result.System, p.Rate/1e6,
				p.Wall.Round(time.Millisecond), p.EventsPerSec()/1e6)
		}
	}

	if *rackN > 0 {
		if err := runRack(sc, *rackN, *route, *machines, *workloadName); err != nil {
			fmt.Fprintln(os.Stderr, "tqsim:", err)
			os.Exit(2)
		}
		return
	}
	if *gap {
		if err := runGap(sc, *machines, *workloadName); err != nil {
			fmt.Fprintln(os.Stderr, "tqsim:", err)
			os.Exit(2)
		}
		return
	}
	if *machines != "" {
		if err := runMachines(sc, *machines, *workloadName, *discipline); err != nil {
			fmt.Fprintln(os.Stderr, "tqsim:", err)
			os.Exit(2)
		}
		return
	}

	figs := []string{*fig}
	if *fig == "all" {
		figs = []string{"1", "2", "4", "5", "6", "7", "8", "9", "10", "11", "12", "16", "dispatcher"}
	}
	for _, f := range figs {
		start := time.Now()
		run(f, sc)
		if *progress {
			fmt.Fprintf(os.Stderr, "# figure %s done in %s\n", f, time.Since(start).Round(time.Millisecond))
		}
	}
}

func run(fig string, sc experiments.Scale) {
	switch fig {
	case "1":
		header("Figure 1: p99.9 slowdown vs load (centralized PS, zero overhead), x=rate(rps)")
		printSeries(experiments.Fig1(sc))
	case "2":
		header("Figure 2: max rate with p99.9 slowdown<=10 vs quantum(µs)")
		printSeries(experiments.Fig2(sc))
	case "4":
		header("Figure 4: long-job p99.9 slowdown, CT vs TLS tie-breaking, x=rate(rps)")
		printSeries(experiments.Fig4(sc))
	case "5":
		header("Figure 5: TQ quantum sweep, short-job p99.9 sojourn(µs) vs rate(rps)")
		short, _ := quantumSweep(sc)
		printSeries(short)
	case "6":
		header("Figure 6: TQ quantum sweep, long-job p99.9 sojourn(µs) vs rate(rps)")
		_, long := quantumSweep(sc)
		printSeries(long)
	case "7":
		header("Figure 7: TQ vs Shinjuku vs Caladan, p99.9 end-to-end(µs) vs rate(rps)")
		for _, cmp := range experiments.Fig7(sc) {
			printComparison(cmp)
		}
	case "8":
		header("Figure 8: TPC-C, p99.9 end-to-end(µs) and overall slowdown vs rate(rps)")
		printComparison(experiments.Fig8(sc))
	case "9":
		header("Figure 9: Exp(1), p99.9 end-to-end(µs) vs rate(rps)")
		printComparison(experiments.Fig9(sc))
	case "10":
		header("Figure 10: RocksDB mixes, p99.9 end-to-end(µs) vs rate(rps)")
		for _, cmp := range experiments.Fig10(sc) {
			printComparison(cmp)
		}
	case "11":
		header("Figure 11: forced-multitasking ablations, GET p99.9 sojourn(µs) vs rate(rps)")
		printSeries(experiments.Fig11(sc))
	case "12":
		header("Figure 12: two-level-scheduling ablations, GET p99.9 sojourn(µs) vs rate(rps)")
		printSeries(experiments.Fig12(sc))
	case "16":
		header("Figure 16: max cores within 10% of target quantum, x=quantum(µs)")
		printSeries(experiments.Fig16(sc))
	case "table1":
		header("Table 1: evaluated workloads")
		fmt.Printf("%-18s %-12s %10s %8s\n", "workload", "request", "runtime(µs)", "ratio")
		for _, w := range workload.All() {
			for _, c := range w.Classes {
				fmt.Printf("%-18s %-12s %10.1f %7.1f%%\n", w.Name, c.Name, c.Service.Micros(), c.Ratio*100)
			}
			fmt.Printf("%-18s %-12s %10.2f  (mean)  dispersion %.0fx\n",
				"", "overall", w.MeanService().Micros(), w.DispersionRatio())
		}
	case "dispatcher":
		header("§6: dispatcher throughput on tiny jobs (offered 16Mrps)")
		out := experiments.DispatcherThroughput(sc, 16e6)
		keys := make([]string, 0, len(out))
		for k := range out {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%s\t%.3g rps\n", k, out[k])
		}
	default:
		fmt.Fprintf(os.Stderr, "tqsim: unknown figure %q\n", fig)
		os.Exit(2)
	}
}

// fig56 holds the series of the one sweep Figures 5 and 6 both read,
// so a run printing both (-fig all) simulates it once.
var fig56 struct{ short, long []stats.Series }

func quantumSweep(sc experiments.Scale) (short, long []stats.Series) {
	if fig56.short == nil {
		fig56.short, fig56.long = experiments.Fig5And6(sc)
	}
	return fig56.short, fig56.long
}

// parseMachineList resolves a comma-separated -machines value against
// the registry.
func parseMachineList(list string) ([]string, error) {
	var names []string
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, ok := cluster.Lookup(n); !ok {
			return nil, fmt.Errorf("unknown machine %q (run -machines list for the catalogue)", n)
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("empty -machines value")
	}
	return names, nil
}

// runMachines sweeps the named registry machines side by side over one
// workload — any registered machine, default parameters, selected by
// name (the registry is the front door; see cluster.Names). A
// -discipline builds every named machine with that queue discipline.
func runMachines(sc experiments.Scale, list, workloadName, discipline string) error {
	w, err := findWorkload(workloadName)
	if err != nil {
		return err
	}
	names, err := parseMachineList(list)
	if err != nil {
		return err
	}
	cmp, err := experiments.CompareMachines(sc, w, nil, cluster.Options{Discipline: discipline}, names...)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Machine comparison on %s: p99.9 end-to-end(µs) vs rate(rps)", w.Name))
	printComparison(cmp)
	return nil
}

// runGap prints the optimality-gap table: every named machine's p99
// sojourn for the workload's first class, divided by the clairvoyant
// oracle-srpt's at the same rate, at mid-load (55% of saturation) and
// the overload knee (90%). Empty -machines means the whole catalogue.
func runGap(sc experiments.Scale, list, workloadName string) error {
	w, err := findWorkload(workloadName)
	if err != nil {
		return err
	}
	names := cluster.Names()
	if list != "" {
		if names, err = parseMachineList(list); err != nil {
			return err
		}
	}
	class := w.Classes[0].Name
	header(fmt.Sprintf("Optimality gap on %s, class %s: p99 sojourn ÷ oracle-srpt (1.00 = clairvoyant SRPT)", w.Name, class))
	fmt.Printf("%-20s %-24s %10s %10s\n", "machine", "display", "mid 55%", "knee 90%")
	for _, r := range experiments.OptimalityGapTable(sc, w, class, names...) {
		fmt.Printf("%-20s %-24s %10.2f %10.2f\n", r.Name, r.Display, r.Mid, r.Over)
	}
	return nil
}

// runRack sweeps routing policies side by side over N-machine fleets —
// the rack routing plane behind -rack N. The -machines list names the
// per-node machine(s), defaulting to tq; -route names the policies.
func runRack(sc experiments.Scale, n int, routeList, machineList, workloadName string) error {
	w, err := findWorkload(workloadName)
	if err != nil {
		return err
	}
	known := map[string]bool{}
	for _, p := range rack.RouterNames() {
		known[p] = true
	}
	var policies []string
	for _, p := range strings.Split(routeList, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !known[p] {
			return fmt.Errorf("unknown routing policy %q (known: %s)", p, strings.Join(rack.RouterNames(), ", "))
		}
		policies = append(policies, p)
	}
	if len(policies) == 0 {
		return fmt.Errorf("empty -route value")
	}
	if machineList == "" {
		machineList = "tq"
	}
	var names []string
	for _, m := range strings.Split(machineList, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		e, ok := cluster.Lookup(m)
		if !ok {
			return fmt.Errorf("unknown machine %q (run -machines list for the catalogue)", m)
		}
		if !e.CanNode() {
			return fmt.Errorf("machine %q has no node form and cannot join a fleet", m)
		}
		names = append(names, m)
	}
	if len(names) == 0 {
		return fmt.Errorf("empty -machines value")
	}
	for _, m := range names {
		header(fmt.Sprintf("Rack: %d× %s on %s, routing policies side by side, x=rate(rps)", n, m, w.Name))
		printRack(experiments.CompareRack(sc, w, n, m, policies))
	}
	return nil
}

// svcWorkload, when non-nil, is the single-class workload built from
// the -svc service-law spec; it overrides -workload wherever a
// workload is resolved by name.
var svcWorkload *workload.Workload

// findWorkload resolves a workload by its Table 1 name, unless a -svc
// law already built one.
func findWorkload(name string) (*workload.Workload, error) {
	if svcWorkload != nil {
		return svcWorkload, nil
	}
	var known []string
	for _, w := range workload.All() {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
		known = append(known, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(known, ", "))
}

// traceConfig is the canned short run behind -trace and -metrics: the
// Extreme Bimodal workload at 60% load on two cores, where forced
// multitasking visibly interleaves 0.5µs and 500µs jobs.
func traceConfig(seed uint64, workers int) cluster.RunConfig {
	w := workload.ExtremeBimodal()
	return cluster.RunConfig{
		Workload: w,
		Rate:     0.6 * w.MaxLoad(workers),
		Duration: 2 * sim.Millisecond,
		Warmup:   0,
		Seed:     seed,
	}
}

// writeTrace records the same short Extreme Bimodal run under TQ and
// Shinjuku and dumps both timelines into one Perfetto-loadable file:
// watch probe-yields interleave long jobs' quanta on TQ's lanes while
// Shinjuku preempts by interrupt and re-dispatches.
func writeTrace(path string, seed uint64) error {
	const workers = 2
	tq := cluster.NewTQParams()
	tq.Workers = workers
	sj := cluster.NewShinjukuParams(5 * sim.Microsecond)
	sj.Workers = workers
	procs, err := cluster.TraceComparison(traceConfig(seed, workers), 0,
		cluster.NewTQ(tq), cluster.NewShinjuku(sj))
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // for the error path; a second Close is harmless
	if err := obs.WriteChrome(f, procs...); err != nil {
		return err
	}
	return f.Close()
}

// writeMetrics records the canned TQ run and renders it as a windowed
// time series: utilization, occupancy, preemption and drop rates, and
// sliding sojourn quantiles per 100µs window.
func writeMetrics(path string, seed uint64) error {
	const workers = 2
	tq := cluster.NewTQParams()
	tq.Workers = workers
	procs, err := cluster.TraceComparison(traceConfig(seed, workers), 0, cluster.NewTQ(tq))
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // for the error path; a second Close is harmless
	wins := obs.Windows(procs[0].Events, int64(100*sim.Microsecond))
	if err := obs.WriteWindowsTSV(f, wins); err != nil {
		return err
	}
	return f.Close()
}

// showGoodput enables the goodput blocks in printComparison; set when
// -slo provides targets (without targets goodput just repeats
// throughput, so the default output stays as before).
var showGoodput bool

// parseSLOs parses "-slo" syntax: comma-separated Class=duration pairs
// ("GET=50us,SCAN=1ms"), where a bare duration ("100us") or a "*" key
// applies to every class.
func parseSLOs(s string) (map[string]sim.Time, error) {
	out := map[string]sim.Time{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		class, val := "*", part
		if i := strings.IndexByte(part, '='); i >= 0 {
			class, val = strings.TrimSpace(part[:i]), strings.TrimSpace(part[i+1:])
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad SLO %q: want Class=duration or a bare duration", part)
		}
		out[class] = sim.Time(d.Nanoseconds())
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -slo value")
	}
	return out, nil
}

func header(s string) { fmt.Printf("# %s\n", s) }

func printSeries(series []stats.Series) {
	for _, s := range series {
		fmt.Print(s.String())
		fmt.Println()
	}
}

func printComparison(cmp experiments.SystemComparison) {
	classes := make([]string, 0, len(cmp.PerClass))
	for c := range cmp.PerClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, class := range classes {
		fmt.Printf("## %s / %s\n", cmp.Workload, class)
		printSeries(cmp.PerClass[class])
	}
	if len(cmp.OverallSlowdown) > 0 {
		fmt.Printf("## %s / overall p99.9 slowdown\n", cmp.Workload)
		printSeries(cmp.OverallSlowdown)
	}
	if showGoodput && len(cmp.Goodput) > 0 {
		fmt.Printf("## %s / goodput (rps meeting SLO)\n", cmp.Workload)
		printSeries(cmp.Goodput)
	}
	// Drop-rate curves appear only once something actually dropped:
	// survivor-only latency curves flatten right where these rise.
	if anyNonZero(cmp.DropRate) {
		fmt.Printf("## %s / drop rate\n", cmp.Workload)
		printSeries(cmp.DropRate)
	}
	if cmp.PerTenant != nil {
		tenantNames := make([]string, 0, len(cmp.PerTenant))
		for tn := range cmp.PerTenant {
			tenantNames = append(tenantNames, tn)
		}
		sort.Strings(tenantNames)
		for _, tn := range tenantNames {
			fmt.Printf("## %s / tenant %s p99.9 sojourn(µs)\n", cmp.Workload, tn)
			printSeries(cmp.PerTenant[tn])
		}
	}
	if cmp.OptimalityGap != nil {
		gapClasses := make([]string, 0, len(cmp.OptimalityGap))
		for c := range cmp.OptimalityGap {
			gapClasses = append(gapClasses, c)
		}
		sort.Strings(gapClasses)
		for _, class := range gapClasses {
			fmt.Printf("## %s / %s optimality gap (p99 sojourn ÷ oracle-srpt)\n", cmp.Workload, class)
			printSeries(cmp.OptimalityGap[class])
		}
	}
}

func printRack(cmp experiments.RackComparison) {
	classes := make([]string, 0, len(cmp.P999))
	for c := range cmp.P999 {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, class := range classes {
		fmt.Printf("## %s / %s p99 sojourn(µs)\n", cmp.Workload, class)
		printSeries(cmp.P99[class])
		fmt.Printf("## %s / %s p99.9 sojourn(µs)\n", cmp.Workload, class)
		printSeries(cmp.P999[class])
	}
	fmt.Printf("## %s / goodput (rps)\n", cmp.Workload)
	printSeries(cmp.Goodput)
	if anyNonZero(cmp.DropRate) {
		fmt.Printf("## %s / drop rate\n", cmp.Workload)
		printSeries(cmp.DropRate)
	}
}

func anyNonZero(series []stats.Series) bool {
	for _, s := range series {
		for _, y := range s.Y {
			if y > 0 {
				return true
			}
		}
	}
	return false
}
