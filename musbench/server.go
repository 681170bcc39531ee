package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/api"
)

// serverOpts are the mus-serve settings of one launch. Everything else
// keeps the server's defaults: two engine workers on this machine,
// admission on and a 4096-entry cache.
type serverOpts struct {
	Traced  bool   // trace every request instead of -trace-buffer -1
	DataDir string // -data-dir, empty for none
}

// server is one running mus-serve process.
type server struct {
	cmd       *exec.Cmd
	base      string // http://127.0.0.1:port
	pprofBase string
	done      chan struct{}
	ctl       *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches the binary and waits until /v1/healthz answers.
// It returns the server and the time from launch to ready.
func startServer(bin string, o serverOpts) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	pport, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-pprof-addr", fmt.Sprintf("127.0.0.1:%d", pport),
		"-log-level", "off",
	}
	if o.Traced {
		// Room for every span of a traced window, so none is overwritten
		// before it is read back.
		args = append(args, "-trace-buffer", "262144")
	} else {
		args = append(args, "-trace-buffer", "-1")
	}
	if o.DataDir != "" {
		args = append(args, "-data-dir", o.DataDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{
		cmd:       cmd,
		base:      fmt.Sprintf("http://127.0.0.1:%d", port),
		pprofBase: fmt.Sprintf("http://127.0.0.1:%d", pport),
		done:      make(chan struct{}),
		ctl:       &http.Client{Timeout: 60 * time.Second},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server says nothing
		close(s.done)
	}()
	for {
		select {
		case <-s.done:
			return nil, 0, errors.New("mus-serve exited during start-up")
		default:
		}
		resp, err := s.ctl.Get(s.base + api.PathHealthz)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, errors.New("mus-serve not ready after 30 s")
		}
		pause(200 * time.Microsecond)
	}
}

// pause sleeps for d in the kernel. time.Sleep rounds a short sleep up to
// a millisecond or more (the Go runtime waits for timers in whole
// milliseconds), a tenth of a launch; nanosleep overshoots by about
// 0.06 ms.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// stop kills the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.done
	s.ctl.CloseIdleConnections()
}

// getJSON decodes the JSON answer of a GET on the server.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.ctl.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stats reads GET /v1/stats.
func (s *server) stats() (api.StatsResponse, error) {
	var st api.StatsResponse
	err := s.getJSON(api.PathStats, &st)
	return st, err
}

// metrics reads GET /metrics into a map from "name{labels}" to value.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := s.ctl.Get(s.base + api.PathMetrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// heapLiveMB forces garbage collections through the server's pprof
// endpoint and then reads the live heap it reports on /metrics. It
// collects twice: objects parked in a sync.Pool survive the first
// collection in the pool's victim cache.
func (s *server) heapLiveMB() (float64, error) {
	for range 2 {
		resp, err := s.ctl.Get(s.pprofBase + "/debug/pprof/heap?gc=1")
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	m, err := s.metrics()
	if err != nil {
		return 0, err
	}
	v, ok := m["mus_runtime_heap_bytes"]
	if !ok {
		return 0, errors.New("/metrics has no mus_runtime_heap_bytes")
	}
	return v / (1 << 20), nil
}

// cpuSeconds returns the server's user plus system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return (ut + st) / ticksPerSecond, nil
}

// trace reads one assembled trace.
func (s *server) trace(id string) (api.TraceResponse, error) {
	var tr api.TraceResponse
	err := s.getJSON(api.TracePath(id), &tr)
	return tr, err
}
