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
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one oscard process driven over loopback HTTP by a single
// keep-alive client connection.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	log    *os.File
	once   sync.Once
}

// startServer launches oscard with args on a free loopback port and waits
// until /healthz answers. The returned duration runs from process launch to
// the first healthy answer.
func startServer(bin, workdir string, args ...string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(filepath.Join(workdir, "oscard.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	full := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-log-level", "error", "-drain", "5s"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{
		cmd:  cmd,
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		client: &http.Client{
			Timeout:   150 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		},
		exited: make(chan struct{}),
		log:    logf,
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	deadline := t0.Add(60 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, errors.New("oscard exited during start-up (see .bench_build/work/oscard.log)")
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("oscard did not become healthy within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts oscard down gracefully and waits for the process to end,
// killing it if it does not exit in time. Later calls do nothing.
func (s *server) stop() {
	s.once.Do(func() {
		s.client.CloseIdleConnections()
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(15 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
		s.log.Close()
	})
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// post sends a JSON body and decodes a JSON answer into out, returning the
// HTTP status.
func (s *server) post(path string, body []byte, out any) (int, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// get decodes a JSON answer into out, returning the HTTP status.
func (s *server) get(path string, out any) (int, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// procStat is the CPU time and peak resident set of a process, read from
// /proc.
type procStat struct {
	cpuMS  float64
	peakMB float64
}

// clockTicksPerSec is USER_HZ, fixed at 100 on every Linux architecture Go
// targets.
const clockTicksPerSec = 100

func (s *server) procStat() (procStat, error) {
	pid := s.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// field 14 and stime field 15 (proc(5)).
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return procStat{}, err
	}
	out := procStat{cpuMS: (ut + st) * 1000 / clockTicksPerSec}
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStat{}, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return procStat{}, err
			}
			out.peakMB = kb / 1024
		}
	}
	return out, sc.Err()
}

// scrape reads /metrics into a map from series (name plus labels, as
// printed) to value. Histogram buckets are skipped.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.Contains(line[:i], "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// stageDelta is the mean duration in ms and the count of one span stage
// between two /metrics scrapes.
func stageDelta(before, after map[string]float64, stage string) (meanMS, count float64) {
	key := `{stage="` + stage + `"}`
	n := after["oscard_stage_duration_seconds_count"+key] - before["oscard_stage_duration_seconds_count"+key]
	s := after["oscard_stage_duration_seconds_sum"+key] - before["oscard_stage_duration_seconds_sum"+key]
	return ratio(s*1000, n), n
}
