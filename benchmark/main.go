// Command benchmark is the wall-clock benchmark of the whole stack: the
// aspect weaver, the par modules and scheduler, NetRMI and its fault
// journal, the rmi codec and transport over loopback TCP, and the resident
// imagepipe service. BENCHMARK.json at the repository root names its
// workloads and metrics; README.md in this directory says what each means.
//
//	bash benchmark/run.sh --workload call-small --seed 7 --seconds 15 --trace 0
//	bash benchmark/run.sh                      # all seven workloads, a table
//	bash benchmark/run.sh --trace 1            # the per-layer pass instead
//	bash benchmark/run.sh --repeat 2           # twice, and compare
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "run one workload and end with the result line; empty runs all seven")
	seed := flag.Int64("seed", 1, "every input derives from it")
	seconds := flag.Int("seconds", 0, "timed seconds per workload; 0 takes run_seconds from BENCHMARK.json")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	repeat := flag.Int("repeat", 1, "run the suite this many times on one seed and fail unless the medians agree within each metric's bound")
	child := flag.Bool("child", false, "internal: run the workload in this process")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	man, err := loadManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = man.RunSeconds
	}
	b := bench{
		man:     man,
		outDir:  filepath.Join(root, man.Paths[0], "out"),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace != 0,
	}

	switch {
	case *child:
		b.runChild(*workloadName)
	case *workloadName != "":
		if _, ok := findWorkload(*workloadName); !ok {
			fatal(fmt.Errorf("no workload %q", *workloadName))
		}
		res := b.spawn(*workloadName)
		printResult(os.Stdout, res)
		line, err := json.Marshal(b.resultLine(res))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	default:
		if !b.suite(*repeat) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// findRoot finds the repository root — the directory holding BENCHMARK.json
// — from the working directory: the root itself, or this directory.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found: run from the repository root or from benchmark/")
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (manifest, error) {
	var man manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("%s: %w", path, err)
	}
	if len(man.Paths) == 0 || man.RunSeconds <= 0 {
		return man, fmt.Errorf("%s: no paths or no run_seconds", path)
	}
	return man, nil
}

// declared lists the metrics a run of the given kind must report.
func (man manifest) declared(traced bool) []metricDecl {
	if traced {
		return man.PerLayer
	}
	return man.EndToEnd
}

// bench is one invocation's settings.
type bench struct {
	man     manifest
	outDir  string
	seed    int64
	seconds time.Duration
	traced  bool
}

// runChild is the re-executed half: it runs the workload in a process of
// its own, so that heap state and the resident-set peak belong to that
// workload alone, and writes progress and the result as JSON lines.
func (b bench) runChild(name string) {
	w, ok := findWorkload(name)
	if !ok {
		fatal(fmt.Errorf("no workload %q", name))
	}
	out := json.NewEncoder(os.Stdout)
	progress := func(attempted, failed int64) {
		_ = out.Encode(result{Attempted: attempted, Failed: failed}) // a lost progress line only blunts the watchdog's count
	}
	c := config{seed: b.seed, scale: 1}
	var res result
	if b.traced {
		res = traceWorkload(w, c, filepath.Join(b.outDir, "trace-"+name+".json"), progress)
	} else {
		res = runWorkload(w, c, b.seconds, progress)
	}
	if err := out.Encode(res); err != nil {
		fatal(err)
	}
}

// spawn runs one workload in a child process under a watchdog. A child that
// hangs is killed, and the operation it was stuck in counts as failed: a
// stuck product must not become a stuck benchmark.
func (b bench) spawn(name string) result {
	lost := func(last result, err error) result {
		return result{Workload: name, Seed: b.seed, Traced: b.traced, Attempted: last.Attempted, Failed: last.Failed}.lost(err)
	}
	self, err := os.Executable()
	if err != nil {
		return lost(result{}, err)
	}
	trace := "0"
	if b.traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", name, "-seed", strconv.FormatInt(b.seed, 10),
		"-seconds", strconv.Itoa(int(b.seconds/time.Second)), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return lost(result{}, err)
	}
	if err := cmd.Start(); err != nil {
		return lost(result{}, err)
	}
	limit := 60*time.Second + 3*b.seconds
	watchdog := time.AfterFunc(limit, func() { _ = cmd.Process.Kill() }) // an error means it already exited

	var last, final result
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var line result
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		if line.Workload == "" {
			last = line
		} else {
			final = line
		}
	}
	err = cmd.Wait()
	if !watchdog.Stop() {
		return lost(last, fmt.Errorf("watchdog: no result within %s, child killed", limit))
	}
	if err != nil || final.Workload == "" {
		return lost(last, fmt.Errorf("child ended without a result: %v", err))
	}
	return final
}

// resultLine is the last line of a single-workload run: every declared
// metric of the run's kind, by name. A per-layer metric this workload does
// not exercise reads 0 — the layer did nothing here.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b bench) resultLine(res result) resultLine {
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineValue{}}
	for _, d := range b.man.declared(res.Traced) {
		line.Metrics[d.Name] = lineValue{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return line
}

// printResult writes one line per metric: workload metric value unit n.
func printResult(w *os.File, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Fprintf(w, "%-15s %-34s %14.4f %-6s n=%d", res.Workload, name, s.Value, s.Unit, s.N)
		if s.N > 1 && (s.Q1 != 0 || s.Q3 != 0) {
			fmt.Fprintf(w, "  q1=%.4f q3=%.4f", s.Q1, s.Q3)
		}
		fmt.Fprintln(w)
	}
	ratio := 1.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-15s %-34s %14.6f %-6s n=%d\n", res.Workload, "fail_ratio", ratio, "ratio", res.Attempted)
	for _, note := range res.Notes {
		fmt.Fprintf(w, "%-15s budget: %s\n", res.Workload, note)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "%-15s error: %s\n", res.Workload, e)
	}
}

// suite runs every workload `repeat` times on one seed, prints the table,
// writes results.json, and — for repeat > 1 — reports whether every
// end-to-end median of every later run agrees with the first within the
// metric's own bound, with no failed operation anywhere.
func (b bench) suite(repeat int) bool {
	type report struct {
		Env     environment `json:"environment"`
		Seed    int64       `json:"seed"`
		Seconds float64     `json:"seconds"`
		Runs    [][]result  `json:"runs"`
	}
	rep := report{Env: currentEnvironment(), Seed: b.seed, Seconds: b.seconds.Seconds()}
	fmt.Printf("# %s GOMAXPROCS=%d nproc=%d commit=%s seed=%d seconds=%g network=%q\n",
		rep.Env.GoVersion, rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Env.Commit, b.seed, rep.Seconds, rep.Env.Network)
	ok := true
	for r := 0; r < max(1, repeat); r++ {
		var run []result
		for _, w := range workloads {
			res := b.spawn(w.name)
			printResult(os.Stdout, res)
			ok = ok && res.Correct
			run = append(run, res)
		}
		rep.Runs = append(rep.Runs, run)
	}
	if repeat > 1 {
		ok = b.compare(rep.Runs) && ok
	}
	if err := writeJSON(filepath.Join(b.outDir, "results.json"), rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	return ok
}

// compare prints every end-to-end metric of the first run beside each later
// run's and checks the later median against the first's bound.
func (b bench) compare(runs [][]result) bool {
	ok := true
	fmt.Printf("\n%-15s %-12s %14s %14s %8s %7s  %s\n", "workload", "metric", "run 1", "run k", "worse", "bound", "run 1 quartiles")
	for k := 1; k < len(runs); k++ {
		for i, first := range runs[0] {
			later := runs[k][i]
			if first.Failed != later.Failed {
				ok = false
				fmt.Printf("%-15s failed operations differ: %d, then %d\n", first.Workload, first.Failed, later.Failed)
			}
			for _, d := range b.man.EndToEnd {
				a, z := first.Metrics[d.Name], later.Metrics[d.Name]
				worse := (z.Value - a.Value) / a.Value
				if d.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				if !(worse <= d.Bound) { // also catches a missing metric's NaN
					ok = false
					verdict = "  DISAGREE"
				}
				quartiles := "one sample"
				if a.N > 1 {
					quartiles = fmt.Sprintf("%.4f..%.4f n=%d", a.Q1, a.Q3, a.N)
				}
				fmt.Printf("%-15s %-12s %14.4f %14.4f %+7.1f%% %6.0f%%  %s%s\n",
					first.Workload, d.Name, a.Value, z.Value, worse*100, d.Bound*100, quartiles, verdict)
			}
		}
	}
	return ok
}
