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
	"time"

	"flick/perfbench/wire"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux platform Go supports).
const clockTick = 10 * time.Millisecond

// hostProc is a running middlebox host.
type hostProc struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	addr  string
	start time.Time
	done  chan error
}

// startHost launches the host and waits for it to deploy.
func startHost(bin string, args []string) (*hostProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outp, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	h := &hostProc{cmd: cmd, in: in, out: bufio.NewReader(outp), done: make(chan error, 1)}
	h.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start host: %w", err)
	}
	line, err := h.readLine(30 * time.Second)
	if err != nil {
		h.kill()
		return nil, fmt.Errorf("host did not deploy: %w", err)
	}
	if !strings.HasPrefix(line, wire.ReadyPrefix) {
		h.kill()
		return nil, fmt.Errorf("host said %q before ready", line)
	}
	h.addr = strings.TrimPrefix(line, wire.ReadyPrefix)
	return h, nil
}

// readLine reads one reply line, killing the host if none comes in time.
func (h *hostProc) readLine(timeout time.Duration) (string, error) {
	type res struct {
		s   string
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := h.out.ReadString('\n')
		ch <- res{strings.TrimSpace(s), err}
	}()
	select {
	case r := <-ch:
		return r.s, r.err
	case <-time.After(timeout):
		h.kill()
		<-ch // the kill closes the pipe and ends the read
		return "", fmt.Errorf("host did not answer within %v", timeout)
	}
}

// call sends one control command and returns its reply.
func (h *hostProc) call(cmd string) (string, error) {
	if _, err := io.WriteString(h.in, cmd+"\n"); err != nil {
		return "", fmt.Errorf("host command %q: %w", cmd, err)
	}
	return h.readLine(60 * time.Second)
}

func (h *hostProc) ok(cmd string) error {
	r, err := h.call(cmd)
	if err == nil && r != wire.ReplyOK {
		err = fmt.Errorf("host command %q: reply %q", cmd, r)
	}
	return err
}

func (h *hostProc) snap() (wire.Snapshot, error) {
	var s wire.Snapshot
	r, err := h.call(wire.CmdSnap)
	if err != nil {
		return s, err
	}
	err = json.Unmarshal([]byte(r), &s)
	return s, err
}

// cpu returns the host's user+system CPU time so far.
func (h *hostProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", h.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat: %q", b)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// rss returns the host's resident set (VmRSS) in MiB.
func (h *hostProc) rss() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", h.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// rssSampler samples the host's resident set every rssEvery until stop,
// which returns the median sample. A median of samples is steadier than
// the peak (VmHWM), which catches whichever garbage-collection cycle ran
// latest.
type rssSampler struct {
	stopc chan struct{}
	done  chan []float64
}

const rssEvery = 50 * time.Millisecond

func (h *hostProc) sampleRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var xs []float64
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if v, err := h.rss(); err == nil {
				xs = append(xs, v)
			}
			select {
			case <-s.stopc:
				s.done <- xs
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) stop() (float64, error) {
	close(s.stopc)
	xs := <-s.done
	if len(xs) == 0 {
		return 0, fmt.Errorf("no resident-set samples")
	}
	return wire.Median(xs), nil
}

// stop closes the host's control input and waits for it to exit.
func (h *hostProc) stop() error {
	h.in.Close()
	go func() { h.done <- h.cmd.Wait() }()
	select {
	case err := <-h.done:
		return err
	case <-time.After(10 * time.Second):
		h.cmd.Process.Kill()
		<-h.done
		return fmt.Errorf("host did not exit within 10s")
	}
}

// kill ends the host at once and reaps it.
func (h *hostProc) kill() {
	h.cmd.Process.Kill()
	h.in.Close()
	h.cmd.Wait()
}
