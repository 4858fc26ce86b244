package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/mpeg"
	"repro/internal/proto"
)

// Shapes of the real-daemon workloads; the measuring time is the daemon's
// own -dur. The clip and its 1960 payload seed are the daemon's constants:
// these workloads are seedless.
const (
	daemonPeriod   = 40 * time.Millisecond
	pacedStreams   = 64
	burstStreams   = 256
	churnSessions  = 300
	churnShare     = 0.25
	wantRcvBuf     = 4 << 20
	payloadSeed    = 1960
	setupProbeDur  = 300 * time.Millisecond
	setupProbeRuns = 5
)

// buildDaemon compiles cmd/dwcsd once into dir and returns the binary. The
// build time is environment information, never part of setup_s.
func buildDaemon(dir string) (string, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "dwcsd"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/dwcsd").CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("go build repro/cmd/dwcsd: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// arrival is one intact frame at the bench's socket.
type arrival struct {
	seq uint32
	at  time.Duration // since the daemon was exec'd
}

// childUsage is what the kernel accounted to a finished child.
type childUsage struct {
	wall    time.Duration
	cpu     cpuTime
	rssMB   float64
	volCtx  int64
	involCt int64
}

func usageOf(cmd *exec.Cmd, wall time.Duration) childUsage {
	u := childUsage{wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpu = cpuTime{tv(ru.Utime), tv(ru.Stime)}
		u.rssMB = float64(ru.Maxrss) / 1024
		u.volCtx, u.involCt = int64(ru.Nvcsw), int64(ru.Nivcsw)
	}
	return u
}

// daemonChild is a running dwcsd with its stdout captured and, when asked,
// a scraper polling its /metrics once a second as the traced pass does.
type daemonChild struct {
	cmd    *exec.Cmd
	args   []string
	stdout bytes.Buffer
	t0     time.Time
	cancel context.CancelFunc
	stop   chan struct{} // closed to stop the scraper
	wg     sync.WaitGroup

	scrapeMs  []float64
	scrapeLen int
}

// exitGrace is how long past its -dur a daemon may take to wind down before
// the bench kills it, so a hung child cannot hang the run.
const exitGrace = 15 * time.Second

// startDaemon execs the daemon for a run of dur. It announces its metrics
// address on stderr; everything else it writes there is passed through.
func startDaemon(bin string, args []string, dur time.Duration, scrape bool) (*daemonChild, error) {
	if scrape {
		args = append(args, "-metrics", "127.0.0.1:0")
	}
	ctx, cancel := context.WithTimeout(context.Background(), dur+exitGrace)
	c := &daemonChild{cmd: exec.CommandContext(ctx, bin, args...), args: args, cancel: cancel, stop: make(chan struct{})}
	c.cmd.Stdout = &c.stdout
	// The child gets the pipe's write end itself, so cmd.Wait does not race
	// the scanner below; the scanner ends at the EOF the child's exit causes.
	stderr, stderrW, err := os.Pipe()
	if err != nil {
		cancel()
		return nil, err
	}
	c.cmd.Stderr = stderrW
	c.t0 = time.Now()
	err = c.cmd.Start()
	stderrW.Close()
	if err != nil {
		cancel()
		stderr.Close()
		return nil, err
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer stderr.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if url, ok := strings.CutPrefix(line, "dwcsd: metrics on "); ok && scrape {
				c.wg.Add(1)
				go func() {
					defer c.wg.Done()
					c.scrapeMs, c.scrapeLen = scrapeLoop(url, c.stop)
				}()
				continue
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}()
	return c, nil
}

// wait lets the daemon run its dur, stops the scraper before the daemon
// closes its listener, and reaps the child.
func (c *daemonChild) wait(dur time.Duration) (childUsage, error) {
	defer c.cancel()
	time.Sleep(time.Until(c.t0.Add(dur)))
	close(c.stop)
	err := c.cmd.Wait()
	wall := time.Since(c.t0)
	c.wg.Wait()
	if err != nil {
		return childUsage{}, fmt.Errorf("dwcsd %s: %w", strings.Join(c.args, " "), err)
	}
	return usageOf(c.cmd, wall), nil
}

// senderRun is everything one `dwcsd -dest` run showed from outside.
type senderRun struct {
	childUsage
	streams   int
	dur       time.Duration
	arrivals  map[uint32][]arrival
	intact    int64 // frames whose length and bytes matched the clip
	corrupt   int64 // frames reassembled with the wrong length or bytes
	datagrams int64
	first     time.Duration // exec → first intact frame
	sent      int64         // the daemon's own count
	drops     int64         // scheduler deadline drops, the daemon's own count
	rcvBuf    int
	scrapeMs  []float64
	scrapeLen int
}

// offered is the open-loop schedule: every stream is due one frame a period.
func (r *senderRun) offered() int64 { return int64(r.streams) * int64(r.dur/daemonPeriod) }

var senderSummary = regexp.MustCompile(`dwcsd: sent (\d+) frames \((\d+) dropped\)`)

// runSender execs the daemon against a socket the bench owns and receives
// until the daemon has exited and the socket has run dry.
func runSender(bin string, streams int, dur time.Duration, scrape bool) (*senderRun, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	run := &senderRun{streams: streams, dur: dur, arrivals: map[uint32][]arrival{}}
	if run.rcvBuf, err = setRcvBuf(conn, wantRcvBuf); err != nil {
		return nil, err
	}
	port := conn.LocalAddr().(*net.UDPAddr).Port

	clip := mpeg.GenerateDefault()
	payload := mpeg.Encode(clip, payloadSeed)
	var now time.Duration // arrival time of the datagram being ingested
	reasm := proto.NewReassembler(func(stream, seq uint32, frame []byte) {
		f := clip.Frames[int(seq)%len(clip.Frames)]
		if !bytes.Equal(frame, payload[f.Offset:f.Offset+f.Size]) {
			run.corrupt++
			return
		}
		if run.intact == 0 {
			run.first = now
		}
		run.intact++
		run.arrivals[stream] = append(run.arrivals[stream], arrival{seq, now})
	})

	child, err := startDaemon(bin, []string{"-dest", conn.LocalAddr().String(), "-streams", strconv.Itoa(streams),
		"-period", daemonPeriod.String(), "-dur", dur.String()}, dur, scrape)
	if err != nil {
		return nil, err
	}
	// One reader goroutine owns the socket and the run's counters until
	// exited is closed and a read times out.
	exited := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		buf := make([]byte, 64<<10)
		for {
			conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			n, err := conn.Read(buf)
			if err != nil {
				select {
				case <-exited:
					return
				default:
					continue
				}
			}
			now = time.Since(child.t0)
			run.datagrams++
			_ = reasm.Ingest(buf[:n]) // a malformed datagram never completes a frame, so it counts as lost
		}
	}()
	run.childUsage, err = child.wait(dur)
	close(exited)
	<-readerDone
	if err != nil {
		return nil, err
	}
	run.scrapeMs, run.scrapeLen = child.scrapeMs, child.scrapeLen
	m := senderSummary.FindStringSubmatch(child.stdout.String())
	if m == nil {
		return nil, fmt.Errorf("dwcsd printed no summary line: %q", child.stdout.String())
	}
	run.sent, _ = strconv.ParseInt(m[1], 10, 64)
	run.drops, _ = strconv.ParseInt(m[2], 10, 64)
	// Do not charge the harness to the daemon: a datagram the bench's own
	// socket dropped would read as the daemon's loss.
	if dropped, err := socketDrops(port); err == nil && dropped > 0 {
		return nil, fmt.Errorf("invalid run: the bench socket dropped %d datagrams (SO_RCVBUF %d)", dropped, run.rcvBuf)
	}
	return run, nil
}

// scrapeLoop GETs url once a second until stop closes and returns each
// scrape's latency in ms and the last body size.
func scrapeLoop(url string, stop <-chan struct{}) (ms []float64, size int) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return ms, size
		case <-tick.C:
		}
		t0 := time.Now()
		resp, err := http.Get(url)
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			ms = append(ms, inMs(time.Since(t0)))
			size = len(body)
		}
	}
}

// setRcvBuf asks for a receive buffer and reads back what the kernel gave
// (Linux reports double the usable size).
func setRcvBuf(conn *net.UDPConn, bytes int) (int, error) {
	if err := conn.SetReadBuffer(bytes); err != nil {
		return 0, err
	}
	raw, err := conn.SyscallConn()
	if err != nil {
		return 0, err
	}
	var got int
	var gerr error
	if err := raw.Control(func(fd uintptr) {
		got, gerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		return 0, err
	}
	return got, gerr
}

// socketDrops reads the drops column of /proc/net/udp for a local port.
func socketDrops(port int) (int64, error) {
	data, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return 0, err
	}
	return parseUDPDrops(string(data), port)
}

func parseUDPDrops(table string, port int) (int64, error) {
	want := fmt.Sprintf(":%04X", port)
	for _, line := range strings.Split(table, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) >= 13 && strings.HasSuffix(f[1], want) {
			return strconv.ParseInt(f[len(f)-1], 10, 64)
		}
	}
	return 0, errors.New("socket not listed in /proc/net/udp")
}

// soakRun is one `dwcsd -soak` run: the daemon paces its own in-process
// client sessions, so the bench sees only the summary line and the rusage.
type soakRun struct {
	childUsage
	sessions int
	dur      time.Duration
	sum      map[string]float64
}

func (r *soakRun) offered() int64 { return int64(r.sessions) * int64(r.dur/daemonPeriod) }

// runSoak execs the daemon's fixed-seed churn plan at the given shape.
func runSoak(bin string, sessions int, dur time.Duration, scrape bool) (*soakRun, error) {
	child, err := startDaemon(bin, []string{"-soak", strconv.Itoa(sessions), "-period", daemonPeriod.String(),
		"-dur", dur.String(), "-churn", fmt.Sprint(churnShare), "-flash"}, dur, scrape)
	if err != nil {
		return nil, err
	}
	run := &soakRun{sessions: sessions, dur: dur}
	if run.childUsage, err = child.wait(dur); err != nil {
		return nil, err
	}
	run.sum, err = parseSoakSummary(child.stdout.String())
	return run, err
}

// parseSoakSummary reads the key=value fields of the daemon's
// "soak summary:" line.
func parseSoakSummary(out string) (map[string]float64, error) {
	for _, line := range strings.Split(out, "\n") {
		rest, ok := strings.CutPrefix(line, "soak summary:")
		if !ok {
			continue
		}
		sum := map[string]float64{}
		for _, kv := range strings.Fields(rest) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("soak summary: field %q is not key=value", kv)
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("soak summary: field %q: %w", kv, err)
			}
			sum[k] = f
		}
		for _, k := range []string{"setups", "teardowns", "frames_sent", "frames_recv", "drops", "jitter_ms_p95"} {
			if _, ok := sum[k]; !ok {
				return nil, fmt.Errorf("soak summary: no %s field in %q", k, line)
			}
		}
		return sum, nil
	}
	return nil, errors.New("dwcsd printed no soak summary line")
}
