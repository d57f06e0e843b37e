package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// TestServeSmoke is the end-to-end acceptance behind `make serve-smoke`:
// it builds the real binary, boots it on a loopback port, submits jobs
// over HTTP, and checks the three serving-layer guarantees — served
// results are byte-identical to direct sim runs, SIGTERM drains with
// exit code 0 and flushes -metrics-out, and a restart over the same
// state directory resumes the interrupted job to a bit-identical
// result.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and boots the daemon; skipped in -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "wpserved")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/wpserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building wpserved: %v\n%s", err, out)
	}

	stateDir := filepath.Join(tmp, "state")
	metricsOut := filepath.Join(tmp, "metrics.json")

	d := startDaemon(t, bin, stateDir, metricsOut)

	// Guarantee 1: a served job's result is byte-identical to a direct
	// sim run of the same spec.
	quick := server.JobSpec{Suite: "gap", Bench: "bfs", WP: "wpemul", N: 1024, Degree: 4, Seed: 9}
	quickID := d.submit(t, quick)
	st := d.waitState(t, quickID, 30*time.Second, func(st server.Status) bool { return st.State == server.StateDone })
	if st.ExitCode != 0 {
		t.Fatalf("quick job exit %d, want 0 (error %q)", st.ExitCode, st.Error)
	}
	served := d.resultBytes(t, quickID)
	direct, err := server.RunDirect(quick)
	if err != nil {
		t.Fatalf("RunDirect: %v", err)
	}
	want, err := server.CanonicalResult(direct)
	if err != nil {
		t.Fatalf("CanonicalResult: %v", err)
	}
	if !bytes.Equal(served, want) {
		t.Errorf("served result diverges from direct run\nserved:\n%s\ndirect:\n%s", served, want)
	}

	// Guarantee 2: SIGTERM mid-run drains gracefully — exit 0, no
	// result persisted for the interrupted job, checkpoints on disk,
	// -metrics-out flushed.
	long := server.JobSpec{Suite: "gap", Bench: "bfs", WP: "conv", N: 16384, Degree: 8, CheckpointEvery: 100_000}
	longID := d.submit(t, long)
	d.waitState(t, longID, 30*time.Second, func(st server.Status) bool { return st.CheckpointInsts >= 200_000 })
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := d.wait(t, 60*time.Second); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\nstderr:\n%s", err, d.output())
	}
	if _, err := os.Stat(filepath.Join(stateDir, longID, "result.json")); err == nil {
		t.Fatal("drain persisted a result for the interrupted job")
	}
	if snaps, _ := filepath.Glob(filepath.Join(stateDir, longID, "ckpt", "*.wpsnap")); len(snaps) == 0 {
		t.Fatal("no checkpoint snapshots on disk after SIGTERM")
	}
	metricsData, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatalf("-metrics-out not flushed on SIGTERM: %v", err)
	}
	if !strings.Contains(string(metricsData), "wpserved_jobs_submitted_total") {
		t.Error("-metrics-out is missing the server lifecycle metrics")
	}

	// Guarantee 3: a restart over the same state directory re-admits
	// the interrupted job and resumes it to a bit-identical result.
	d2 := startDaemon(t, bin, stateDir, filepath.Join(tmp, "metrics2.json"))
	st = d2.waitState(t, longID, 120*time.Second, func(st server.Status) bool { return st.State == server.StateDone })
	if st.ExitCode != 0 || !st.Resumed {
		t.Fatalf("resumed job: exit %d resumed %v (error %q), want 0/true", st.ExitCode, st.Resumed, st.Error)
	}
	servedLong := d2.resultBytes(t, longID)
	directLong, err := server.RunDirect(long)
	if err != nil {
		t.Fatalf("RunDirect(long): %v", err)
	}
	wantLong, err := server.CanonicalResult(directLong)
	if err != nil {
		t.Fatalf("CanonicalResult(long): %v", err)
	}
	if !bytes.Equal(servedLong, wantLong) {
		t.Error("drain/restart/resume produced a result different from an uninterrupted run")
	}
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := d2.wait(t, 60*time.Second); err != nil {
		t.Fatalf("second daemon exit: %v\nstderr:\n%s", err, d2.output())
	}
}

// daemon wraps one running wpserved process and its HTTP base URL.
type daemon struct {
	cmd  *exec.Cmd
	base string
	logs *bytes.Buffer
	done chan error
}

func startDaemon(t *testing.T, bin, stateDir, metricsOut string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	logs := &bytes.Buffer{}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-state-dir", stateDir,
		"-workers", "2",
		"-drain-timeout", "60s",
		"-metrics-out", metricsOut,
	)
	cmd.Stdout = logs
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting wpserved: %v", err)
	}
	d := &daemon{cmd: cmd, logs: logs, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	t.Cleanup(func() {
		select {
		case <-d.done:
		default:
			_ = cmd.Process.Kill()
			<-d.done
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			d.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		select {
		case err := <-d.done:
			d.done <- err
			t.Fatalf("wpserved exited before binding: %v\n%s", err, d.output())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("wpserved never wrote -addr-file\n%s", d.output())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return d
}

func (d *daemon) output() string { return d.logs.String() }

// wait blocks until the process exits and returns its error (nil on
// exit code 0).
func (d *daemon) wait(t *testing.T, timeout time.Duration) error {
	t.Helper()
	select {
	case err := <-d.done:
		d.done <- err
		return err
	case <-time.After(timeout):
		t.Fatalf("wpserved did not exit within %v\n%s", timeout, d.output())
		return nil
	}
}

func (d *daemon) submit(t *testing.T, spec server.JobSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: status %d, body %+v", resp.StatusCode, st)
	}
	return st.ID
}

func (d *daemon) status(t *testing.T, id string) server.Status {
	t.Helper()
	resp, err := http.Get(d.base + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

func (d *daemon) waitState(t *testing.T, id string, timeout time.Duration, pred func(server.Status) bool) server.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := d.status(t, id)
		if pred(st) {
			return st
		}
		if st.State == server.StateFailed || st.State == server.StateCanceled {
			t.Fatalf("job %s reached %s (error %q) while waiting", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: timeout; last status %+v\n%s", id, st, d.output())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (d *daemon) resultBytes(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading result: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d\n%s", resp.StatusCode, body.String())
	}
	if got := resp.Header.Get("X-Wpserved-Job"); got != id {
		t.Fatalf("result job header %q, want %q", got, id)
	}
	return body.Bytes()
}

// TestStateDirLocked: a second daemon over a state directory another
// process holds exits 1 and names the directory, instead of numbering
// jobs from the same maximum and overwriting the first one's specs.
func TestStateDirLocked(t *testing.T) {
	dir := t.TempDir()
	f, err := os.OpenFile(filepath.Join(dir, "wpserved.lock"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		t.Fatal(err)
	}
	// The unusable -addr makes a daemon that got past the lock exit at
	// once, with another message, instead of serving forever.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", "no-port", "-state-dir", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), dir) {
		t.Errorf("stderr does not name the state dir %s: %s", dir, stderr.String())
	}
}
