package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/pla-go/pla/internal/server"
)

// janitor owns everything a run leaves outside its own memory: child
// processes and temporary directories. sweep is reached from every exit
// path (normal return, error, panic on the main goroutine, SIGINT), so a
// failed run never leaves a plad holding the caller's pipes open.
type janitor struct {
	mu     sync.Mutex
	procs  map[*plad]struct{}
	dirs   []string
	closed bool // swept: nothing new may start
	once   sync.Once
}

func newJanitor() *janitor { return &janitor{procs: make(map[*plad]struct{})} }

func (j *janitor) addDir(dir string) {
	j.mu.Lock()
	j.dirs = append(j.dirs, dir)
	j.mu.Unlock()
}

// track registers a started child; false means the janitor has already
// swept (the run was interrupted) and the caller must kill it itself.
func (j *janitor) track(p *plad) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.closed {
		j.procs[p] = struct{}{}
	}
	return !j.closed
}

func (j *janitor) untrack(p *plad) {
	j.mu.Lock()
	delete(j.procs, p)
	j.mu.Unlock()
}

// sweep kills and reaps every live child, then removes the directories.
// After a sweep no new child can be tracked, so an interrupted run that
// is still winding down on other goroutines cannot leave one behind; it
// may still drop a log file into a directory being removed, hence the
// second attempt. A second caller (the interrupted main goroutine
// returning while the signal handler sweeps) waits for the first.
func (j *janitor) sweep() { j.once.Do(j.sweepOnce) }

func (j *janitor) sweepOnce() {
	j.mu.Lock()
	j.closed = true
	procs := make([]*plad, 0, len(j.procs))
	for p := range j.procs {
		procs = append(procs, p)
	}
	dirs := j.dirs
	j.dirs = nil
	j.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		if os.RemoveAll(d) != nil {
			time.Sleep(100 * time.Millisecond)
			os.RemoveAll(d)
		}
	}
}

// buildPlad compiles ./cmd/plad of the tree the harness runs in. The go
// tool inherits the caller's environment: bench/run.sh points GOCACHE
// and GOTMPDIR inside the checkout before it starts this program.
func buildPlad(workDir string) (string, time.Duration, error) {
	bin := filepath.Join(workDir, "plad")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/plad")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/plad: %w\n%s", err, out.String())
	}
	return bin, time.Since(start), nil
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// plad is one child server process.
type plad struct {
	j        *janitor
	cmd      *exec.Cmd
	addr     string // ingest + query
	httpAddr string // /metrics + /healthz
	dataDir  string
	log      *os.File
	spawned  time.Time
	ready    time.Duration // spawn → /healthz 200
	exited   chan struct{} // closed once Wait returned
	waitErr  error

	mon *monitor
}

// startPlad spawns bin on dataDir with the harness's fixed topology
// (-shards 2 -store mmap, loopback, an HTTP endpoint) plus the
// workload's own flags, and returns once /healthz answers 200 and the
// ingest port accepts a session. The
// child's output goes to a log file next to the data directory, shown
// only when something fails.
func startPlad(j *janitor, bin, dataDir string, extra ...string) (*plad, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(dataDir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-addr", addr, "-http", httpAddr,
		"-shards", "2", "-store", "mmap", "-data-dir", dataDir,
	}, extra...)
	p := &plad{
		j: j, cmd: exec.Command(bin, args...), addr: addr, httpAddr: httpAddr,
		dataDir: dataDir, log: logf, exited: make(chan struct{}),
	}
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	// The kernel kills the child when the thread that forked it exits,
	// which covers the exits the janitor cannot: a panic on another
	// goroutine, a SIGKILL. So the child is started from, and waited for
	// on, a goroutine that keeps its thread for the child's whole life.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	p.spawned = time.Now()
	go func() {
		runtime.LockOSThread()
		err := p.cmd.Start()
		started <- err
		if err != nil {
			return
		}
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	if err := <-started; err != nil {
		logf.Close()
		return nil, err
	}
	if !j.track(p) {
		p.kill()
		return nil, errors.New("interrupted")
	}
	err = p.waitHealthy(60 * time.Second)
	if err == nil {
		err = p.waitAccepting(5 * time.Second)
	}
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("plad %s: %w\n%s", strings.Join(args, " "), err, p.logTail())
	}
	p.ready = time.Since(p.spawned)
	p.mon = startMonitor(p)
	return p, nil
}

// waitHealthy polls /healthz. A refused HTTP connection is silent on
// the server side, unlike a probing dial of the ingest port, which
// plad logs as a short-magic error.
func (p *plad) waitHealthy(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("exited before becoming healthy: %v", p.waitErr)
		default:
		}
		resp, err := client.Get("http://" + p.httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("not healthy after %v", limit)
}

// waitAccepting opens and closes one query session. plad serves HTTP a
// moment before it binds its ingest port, so /healthz can say ok while
// a dial is still refused (seen once in about three hundred spawns). A
// real session, unlike a bare probing dial, leaves nothing in plad's log.
func (p *plad) waitAccepting(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		q, err := server.DialQuery(p.addr)
		if err == nil {
			return q.Close()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthy but not accepting: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// firstAnswer times spawn → first answered SERIES, the recover_s
// definition: what a client waiting for the restarted daemon observes.
func (p *plad) firstAnswer() (time.Duration, []server.SeriesInfo, error) {
	q, err := server.DialQuery(p.addr)
	if err != nil {
		return 0, nil, err
	}
	defer q.Close()
	infos, err := q.Series()
	if err != nil {
		return 0, nil, err
	}
	return time.Since(p.spawned), infos, nil
}

func (p *plad) scrape() (promPage, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + p.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// drain sends SIGINT and waits for the graceful shutdown (queues
// drained, tails sealed), returning how long it took.
func (p *plad) drain() (time.Duration, error) {
	start := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
		p.kill()
		return 0, err
	}
	select {
	case <-p.exited:
	case <-time.After(90 * time.Second):
		p.kill()
		return 0, fmt.Errorf("plad did not drain within 90s\n%s", p.logTail())
	}
	p.mon.stop()
	p.release()
	if p.waitErr != nil {
		return 0, fmt.Errorf("plad drain: %w\n%s", p.waitErr, p.logTail())
	}
	return time.Since(start), nil
}

// kill is SIGKILL + reap: the crash the durability check needs, and the
// last resort on every error path. Safe to call more than once.
func (p *plad) kill() {
	if p.mon != nil {
		p.mon.stop() // its last sample is the high-water mark at the kill
	}
	p.cmd.Process.Kill()
	<-p.exited
	p.release()
}

func (p *plad) release() {
	p.log.Close()
	p.j.untrack(p)
}

func (p *plad) logTail() string {
	b, err := os.ReadFile(p.dataDir + ".log")
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return "--- plad log tail ---\n" + string(b)
}

// cpuTicks returns the child's user+system CPU time so far in clock
// ticks (USER_HZ, 100/s on Linux), read from /proc/<pid>/stat.
func (p *plad) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from after its closing parenthesis.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc stat: %d fields", len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// rssHighWater reads the child's peak resident set so far (VmHWM in
// /proc/<pid>/status). wait4's ru_maxrss would be simpler but is wrong
// here: the kernel folds the forking process's resident set into it at
// exec, and the benchmark, holding the generated inputs, is often the
// larger of the two.
func (p *plad) rssHighWater() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("/proc status: no VmHWM")
}

// monitor watches one plad from outside at 10 Hz for as long as it
// lives: its resident high-water mark (monotonic, so the last sample
// before the exit is the peak to within one tick) and, between mark and
// unmark, the /metrics page, for the longest stretch without
// applied-segment progress and the deepest shard queue seen.
type monitor struct {
	p    *plad
	quit chan struct{}
	done chan struct{}
	once sync.Once

	mu       sync.Mutex
	peakRSS  int64
	marked   bool
	lastSegs float64
	lastMove time.Time
	stallMax time.Duration
	queueMax float64
}

func startMonitor(p *plad) *monitor {
	m := &monitor{p: p, quit: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *monitor) run() {
	defer close(m.done)
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		m.sample()
		select {
		case <-m.quit:
			m.sample()
			return
		case <-t.C:
		}
	}
}

func (m *monitor) sample() {
	rss, err := m.p.rssHighWater()
	m.mu.Lock()
	if err == nil && rss > m.peakRSS {
		m.peakRSS = rss
	}
	marked := m.marked
	m.mu.Unlock()
	if !marked {
		return
	}
	page, err := m.p.scrape()
	if err != nil {
		return // a missed poll only lengthens the observed gap
	}
	m.mu.Lock()
	m.note(time.Now(), page.sum("plad_shard_segments_total"), page.max("plad_shard_queue_depth"))
	m.mu.Unlock()
}

// note folds one poll into the stall and queue accounting (m.mu held).
func (m *monitor) note(now time.Time, segs, queue float64) {
	if queue > m.queueMax {
		m.queueMax = queue
	}
	if segs > m.lastSegs {
		m.lastSegs, m.lastMove = segs, now
		return
	}
	if gap := now.Sub(m.lastMove); gap > m.stallMax {
		m.stallMax = gap
	}
}

// mark opens the timed region's poll window.
func (m *monitor) mark(segs float64) {
	m.mu.Lock()
	m.marked, m.lastSegs, m.lastMove = true, segs, time.Now()
	m.stallMax, m.queueMax = 0, 0
	m.mu.Unlock()
}

// unmark closes the window and returns what it saw.
func (m *monitor) unmark() (stall time.Duration, queueMax float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.marked = false
	return m.stallMax, m.queueMax
}

// stop takes one last sample and ends the polling.
func (m *monitor) stop() {
	m.once.Do(func() { close(m.quit) })
	<-m.done
}

func (m *monitor) peak() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peakRSS
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
