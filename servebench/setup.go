package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"spire/internal/core"
	"spire/internal/experiments"
)

// model is the trained model as the servers load it.
type model struct {
	path string
	blob []byte
	ens  *core.Ensemble
	id   string
	// pool is every sample of the simulated suite, the source request
	// bodies draw from.
	pool []core.Sample
}

// setupTimes splits one set-up into its stages, in seconds.
type setupTimes struct {
	simulate, train, ready, total float64
}

// simulateAndTrain runs the seed's simulated suite and trains the
// 68-metric quick model on it, with the default hierarchy attached as
// `spire train -hierarchy` does, and writes it to path.
func simulateAndTrain(seed int64, path string) (*model, float64, float64, error) {
	t0 := time.Now()
	cfg := experiments.QuickConfig()
	cfg.Seed = seed
	sess := experiments.NewSession(cfg)
	train, err := sess.TrainingRuns()
	if err != nil {
		return nil, 0, 0, err
	}
	test, err := sess.TestRuns()
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	ens, err := sess.Ensemble()
	if err != nil {
		return nil, 0, 0, err
	}
	ens.Hierarchy = &core.HierarchyModel{Levels: core.DefaultHierarchyLevels()}
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		return nil, 0, 0, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, 0, 0, err
	}
	t2 := time.Now()

	// The reference side evaluates the model exactly as the servers
	// load it: from the saved bytes.
	loaded, err := core.LoadEnsemble(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, 0, 0, err
	}
	id, err := loaded.Fingerprint()
	if err != nil {
		return nil, 0, 0, err
	}
	m := &model{path: path, blob: buf.Bytes(), ens: loaded, id: id}
	for _, r := range append(train, test...) {
		m.pool = append(m.pool, r.Data.Samples...)
	}
	return m, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), nil
}

// proc is one running spire process.
type proc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once stderr hits EOF
	mu   sync.Mutex
	log  bytes.Buffer
}

// startProc runs `spire args...` and waits for its "listening on" line.
func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.done)
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.log.Len() < 64<<10 {
				p.log.WriteString(line + "\n")
			}
			p.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case addr := <-addrc:
		p.addr = addr
		return p, nil
	case <-p.done:
	case <-time.After(30 * time.Second):
	}
	p.stop()
	return nil, fmt.Errorf("spire %s did not start listening:\n%s", args[0], p.stderr())
}

func (p *proc) url() string { return "http://" + p.addr }

func (p *proc) stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// does not exit in time. It returns once the process has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	_ = p.cmd.Wait()
}

// deployment is the set of serving processes one workload runs against.
type deployment struct {
	entry  *proc   // the process clients talk to
	shards []*proc // processes whose /metrics hold the engine counters
	all    []*proc
}

// stop stops every process, router first; calling it again is a no-op.
func (d *deployment) stop() {
	for i := len(d.all) - 1; i >= 0; i-- {
		d.all[i].stop()
	}
	d.all = nil
}

// deploy starts the processes w runs against and waits until they can
// serve: /readyz answers 200 and, behind a router, every shard reports
// the router's model.
func deploy(w workload, bin string, m *model) (*deployment, error) {
	d := &deployment{}
	nShards := 1
	if w.routed {
		nShards = 2
	}
	for i := 0; i < nShards; i++ {
		args := []string{"serve", "-addr", "127.0.0.1:0", "-model", m.path}
		if w.gate > 0 {
			args = append(args, "-max-inflight", strconv.Itoa(w.gate), "-admission-queue", "-1")
		}
		p, err := startProc(bin, args...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.all = append(d.all, p)
		d.shards = append(d.shards, p)
		if err := waitReady(p.url(), nil); err != nil {
			d.stop()
			return nil, err
		}
	}
	d.entry = d.shards[0]
	if !w.routed {
		return d, nil
	}
	var list []string
	for i, sh := range d.shards {
		list = append(list, fmt.Sprintf("s%d=%s", i, sh.url()))
	}
	rt, err := startProc(bin, "route", "-addr", "127.0.0.1:0", "-shards", strings.Join(list, ","), "-model", m.path)
	if err != nil {
		d.stop()
		return nil, err
	}
	d.all = append(d.all, rt)
	d.entry = rt
	if err := waitReady(rt.url(), func() (bool, error) { return converged(rt.url(), m.id) }); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls base's /readyz, then extra, until both pass.
func waitReady(base string, extra func() (bool, error)) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ok, err := getOK(base + "/readyz")
		if err == nil && ok && extra != nil {
			ok, err = extra()
		}
		if err == nil && ok {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 30s", base)
}

var probeClient = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{Proxy: nil}}

func getOK(url string) (bool, error) {
	res, err := probeClient.Get(url)
	if err != nil {
		return false, err
	}
	defer res.Body.Close()
	_, _ = io.Copy(io.Discard, res.Body)
	return res.StatusCode == http.StatusOK, nil
}

// converged reports whether the router and every shard serve model id.
func converged(base, id string) (bool, error) {
	res, err := probeClient.Get(base + "/v1/models")
	if err != nil {
		return false, err
	}
	defer res.Body.Close()
	var out struct {
		Current string `json:"current"`
		Shards  map[string]struct {
			Model string `json:"model"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		return false, err
	}
	if out.Current != id || len(out.Shards) == 0 {
		return false, nil
	}
	for _, sh := range out.Shards {
		if sh.Model != id {
			return false, nil
		}
	}
	return true, nil
}

// setupRuns is how many times one run sets up; setup_s is their median.
const setupRuns = 3

// setUp simulates, trains and deploys setupRuns times, keeping the last
// deployment running. Every set-up must produce the same model.
func setUp(w workload, seed int64, bin, dir string) (*model, *deployment, []setupTimes, error) {
	var (
		m     *model
		d     *deployment
		times []setupTimes
	)
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		mi, sim, train, err := simulateAndTrain(seed, filepath.Join(dir, "model.json"))
		if err != nil {
			return nil, nil, nil, err
		}
		t1 := time.Now()
		d, err = deploy(w, bin, mi)
		if err != nil {
			return nil, nil, nil, err
		}
		t2 := time.Now()
		if m != nil && mi.id != m.id {
			d.stop()
			return nil, nil, nil, errors.New("set-up is not deterministic: two set-ups trained different models")
		}
		m = mi
		times = append(times, setupTimes{simulate: sim, train: train, ready: t2.Sub(t1).Seconds(), total: t2.Sub(t0).Seconds()})
	}
	return m, d, times, nil
}

// cpuTicks returns a process's utime+stime from /proc, in clock ticks.
func cpuTicks(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds sums utime+stime over the deployment's processes.
func (d *deployment) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range d.all {
		t, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum / clockTicks, nil
}

// rssPeakMB sums VmHWM, the peak resident set, over the processes.
func (d *deployment) rssPeakMB() (float64, error) {
	var sum float64
	for _, p := range d.all {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		_, rest, ok := strings.Cut(string(raw), "VmHWM:")
		if !ok {
			return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
		}
		kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			return 0, err
		}
		sum += kb / 1024
	}
	return sum, nil
}

// counters sums /metrics families over the processes holding the
// engine and admission state.
type counters map[string]float64

func (d *deployment) scrape(ctx context.Context) (counters, error) {
	c := counters{}
	for _, p := range d.shards {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url()+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		res, err := probeClient.Do(req)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(res.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			name := line[:sp]
			if j := strings.IndexByte(name, '{'); j >= 0 {
				name = name[:j]
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err == nil {
				c[name] += v
			}
		}
		res.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// sub returns the per-family difference c - before.
func (c counters) sub(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}
