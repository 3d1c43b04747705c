package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run trains the model (and, for
// serve-mix, starts the server) to report the median set-up time.
const setupRepeats = 3

// model is the trained classifier a run maps with.
type model struct {
	path   string
	sha256 string
	// accuracy holds the accuracy lines slap-train printed.
	accuracy []string
}

// trainModels runs slap-train with its default flags n times and returns
// the first model with the median wall time in seconds. Training is seeded,
// so every model should hash the same; a difference is printed, because QoR
// only compares across runs at equal model hash.
func trainModels(e *env, n int) (*model, float64, error) {
	var first *model
	var walls []float64
	for i := 0; i < n; i++ {
		path := filepath.Join(e.work, fmt.Sprintf("model%d.gob", i))
		cmd := exec.Command(filepath.Join(e.bin, "slap-train"), "-o", path)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		t0 := time.Now()
		err := cmd.Run()
		walls = append(walls, time.Since(t0).Seconds())
		if err != nil {
			return nil, 0, fmt.Errorf("slap-train: %v\n%s", err, out.String())
		}
		sum, err := fileSHA256(path)
		if err != nil {
			return nil, 0, err
		}
		m := &model{path: path, sha256: sum}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "accuracy") {
				m.accuracy = append(m.accuracy, strings.TrimSpace(line))
			}
		}
		if first == nil {
			first = m
		} else if m.sha256 != first.sha256 {
			fmt.Printf("model: WARNING training %d produced sha256 %s, training 0 produced %s\n", i, m.sha256, first.sha256)
		}
	}
	fmt.Printf("model: sha256 %s (slap-train defaults, %d trainings, median %.3f s)\n", first.sha256, n, quantile(walls, 0.5))
	for _, a := range first.accuracy {
		fmt.Println("model:", a)
	}
	return first, quantile(walls, 0.5), nil
}

func fileSHA256(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return sha256Hex(b), nil
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// server is a running slap-serve child.
type server struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan error
}

// startServer runs slap-serve with its shipped defaults and the model
// registered as "m", and returns once /healthz answers.
func startServer(e *env, m *model, n int) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	log, err := os.Create(filepath.Join(e.work, fmt.Sprintf("serve%d.log", n)))
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(filepath.Join(e.bin, "slap-serve"), "-addr", addr, "-model", "m="+m.path)
	cmd.Stdout, cmd.Stderr = log, log
	// The server must not outlive the harness if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, 0, fmt.Errorf("starting slap-serve: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, log: log, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK {
			return s, time.Since(t0), nil
		}
		select {
		case werr := <-s.done:
			s.done <- werr
			s.stop()
			return nil, 0, fmt.Errorf("slap-serve exited before /healthz answered: %v (log %s)", werr, log.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("slap-serve did not answer /healthz within 60 s")
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 30 s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// peakRSSMB reads the server's high-water resident set size (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
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

// startServers starts the server n times, stopping all but the last, and
// returns the last with the median start-up time in seconds.
func startServers(e *env, m *model, n int) (*server, float64, error) {
	var starts []float64
	var s *server
	for i := 0; i < n; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var err error
		s, d, err = startServer(e, m, i)
		if err != nil {
			return nil, 0, err
		}
		starts = append(starts, d.Seconds())
	}
	return s, quantile(starts, 0.5), nil
}
