package main

import (
	"bytes"
	"encoding/json"
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

	"kamel/internal/core"
	"kamel/internal/geo"
	"kamel/internal/trajgen"
	"kamel/internal/vocab"
)

// serve-porto: short porto-like trips with gaps of a few cells, so serving
// and batching are a large share of each request.
var serveSpec = spec{
	profile:    trajgen.PortoLike,
	trainTrips: 48,
	cases:      48,
	maxGaps:    4,
	sparsifyM:  400,
	deltaM:     50,
	steps:      15,
}

// serveCallers is the number of keep-alive connections, each a closed-loop
// caller: nproc on the 2-core host the benchmark was sized on, so load never
// needs more threads than the machine has.
const serveCallers = 2

// wireTraj is the server's trajectory wire form: points are [lat, lng, t].
type wireTraj struct {
	ID     string       `json:"id"`
	Points [][3]float64 `json:"points"`
}

func toWire(tr geo.Trajectory) wireTraj {
	w := wireTraj{ID: tr.ID, Points: make([][3]float64, len(tr.Points))}
	for i, p := range tr.Points {
		w.Points[i] = [3]float64{p.Lat, p.Lng, p.T}
	}
	return w
}

func fromWire(w wireTraj) geo.Trajectory {
	tr := geo.Trajectory{ID: w.ID, Points: make([]geo.Point, len(w.Points))}
	for i, p := range w.Points {
		tr.Points[i] = geo.Point{Lat: p[0], Lng: p[1], T: p[2]}
	}
	return tr
}

// imputeReply is the /v1/impute response.
type imputeReply struct {
	Trajectory *wireTraj `json:"trajectory"`
	Segments   int       `json:"segments"`
}

// serveSession is a `kamel serve` child process trained over the wire.
type serveSession struct {
	in      *inputs
	work    string
	cmd     *exec.Cmd
	exited  chan struct{}
	base    string
	clients []*http.Client
	bodies  [][]byte         // pre-rendered /v1/impute bodies, one per case
	refs    []geo.Trajectory // first unloaded response per case
}

func setupServe(o options) (session, error) {
	if o.kamel == "" {
		return nil, fmt.Errorf("serve-porto needs --kamel")
	}
	in, err := makeInputs(serveSpec, o.seed)
	if err != nil {
		return nil, err
	}
	s := &serveSession{in: in}
	for i := 0; i < serveCallers; i++ {
		// One idle connection per caller: each caller keeps its own
		// keep-alive connection for the whole phase.
		s.clients = append(s.clients, &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	for _, c := range in.cases {
		body, err := json.Marshal(toWire(c.sparse))
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
	}
	if err := s.start(o); err != nil {
		s.close()
		return nil, err
	}
	if err := s.seed(); err != nil {
		s.close()
		return nil, err
	}
	// Warm-up: one lone sequential request per case; the responses are the
	// references the measured phase must reproduce.
	for i := range in.cases {
		out, segs, _, err := s.impute(s.clients[0], i)
		if err == nil {
			err = checkOutput(in.cases[i].sparse, out, segs, in.cases[i].gaps)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		s.refs = append(s.refs, out)
	}
	return s, nil
}

// start launches the server on a free loopback port with its default flags,
// apart from the work directory, the address and the training steps.
func (s *serveSession) start(o options) error {
	if err := os.MkdirAll(o.state, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(o.state, "serve-")
	if err != nil {
		return err
	}
	s.work = work
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()
	s.base = "http://" + addr
	logf, err := os.Create(filepath.Join(work, "server.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	s.cmd = exec.Command(o.kamel, "serve", "-work", filepath.Join(work, "data"), "-addr", addr,
		"-steps", strconv.Itoa(serveSpec.steps))
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server dies with the benchmark, whatever ends it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return err
	}
	s.exited = make(chan struct{})
	go func() { s.cmd.Wait(); close(s.exited) }()
	return s.poll(30*time.Second, func() (bool, error) {
		resp, err := http.Get(s.base + "/healthz")
		if err != nil {
			return false, nil
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK, nil
	})
}

// seed trains the server over the wire and waits until it is ready: /readyz
// answers 200 and the background maintainer has nothing pending.
func (s *serveSession) seed() error {
	wire := make([]wireTraj, len(s.in.train))
	for i, tr := range s.in.train {
		wire[i] = toWire(tr)
	}
	body, err := json.Marshal(map[string]any{"trajectories": wire})
	if err != nil {
		return err
	}
	resp, err := http.Post(s.base+"/v1/train", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/train: %s: %s", resp.Status, msg)
	}
	return s.poll(120*time.Second, func() (bool, error) {
		st, err := s.stats()
		if err != nil || st.MaintenancePending != 0 {
			return false, err
		}
		resp, err := http.Get(s.base + "/readyz")
		if err != nil {
			return false, err
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK, nil
	})
}

// poll calls ready every 10ms until it reports true, fails, the server
// exits, or the timeout passes.
func (s *serveSession) poll(timeout time.Duration, ready func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := ready()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		select {
		case <-s.exited:
			log, _ := os.ReadFile(filepath.Join(s.work, "server.log"))
			if len(log) > 2048 {
				log = log[len(log)-2048:]
			}
			return fmt.Errorf("kamel serve exited; its log ends:\n%s", log)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("kamel serve not ready after %v", timeout)
		}
	}
}

// stats reads /v1/stats, whose top level carries core.Stats' fields.
func (s *serveSession) stats() (core.Stats, error) {
	var st core.Stats
	resp, err := http.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// impute posts case i and returns the imputed trajectory, the reported
// segment count, and the round trip up to the last byte of the response.
func (s *serveSession) impute(c *http.Client, i int) (geo.Trajectory, int, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Post(s.base+"/v1/impute", "application/json", bytes.NewReader(s.bodies[i]))
	if err != nil {
		return geo.Trajectory{}, 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return geo.Trajectory{}, 0, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return geo.Trajectory{}, 0, lat, fmt.Errorf("POST /v1/impute: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var rep imputeReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return geo.Trajectory{}, 0, lat, err
	}
	if rep.Trajectory == nil {
		return geo.Trajectory{}, 0, lat, fmt.Errorf("POST /v1/impute: response without a trajectory")
	}
	return fromWire(*rep.Trajectory), rep.Segments, lat, nil
}

func (s *serveSession) callers() int { return serveCallers }
func (s *serveSession) round() int   { return len(s.in.cases) }

func (s *serveSession) op(tr *tracer, caller, i int) opResult {
	i = s.in.order.at(i)
	sp := tr.begin("http.impute", 0)
	out, segs, lat, err := s.impute(s.clients[caller], i)
	sp.end()
	r := opResult{lat: lat, trajs: 1, err: err}
	if err == nil {
		c := s.in.cases[i]
		if r.err = checkOutput(c.sparse, out, segs, c.gaps); r.err == nil {
			r.err = sameOutput(out, s.refs[i])
		}
	}
	return r
}

// usage reads the server's CPU time and peak RSS from /proc.
func (s *serveSession) usage() (float64, float64) {
	pid := s.cmd.Process.Pid
	var cpu, rss float64
	if buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name: state is field 3,
		// utime and stime are fields 14 and 15, in USER_HZ (100/s) ticks.
		if i := bytes.LastIndexByte(buf, ')'); i >= 0 {
			f := strings.Fields(string(buf[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				cpu = (ut + st) / 100
			}
		}
	}
	if buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					kb, _ := strconv.ParseFloat(f[1], 64)
					rss = kb / 1024
				}
			}
		}
	}
	return cpu, rss
}

func (s *serveSession) layerInfo() layerInfo {
	st, _ := s.stats()
	return layerInfo{cfg: systemConfig("", serveSpec.steps), vocab: st.DetokTokens + vocab.NumSpecial, in: s.in}
}

func (s *serveSession) scrape() (scrape, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// finish checks the server's trained state; every phase output matched its
// reference and each case ran equally often, so the references score it.
func (s *serveSession) finish(*tracer) (float64, float64, []error, error) {
	r, p := accuracy(s.in.proj, s.in.cases, s.refs, serveSpec.deltaM)
	st, err := s.stats()
	if err == nil && (st.Trajectories != len(s.in.train) || st.Tokens != points(s.in.train)) {
		err = fmt.Errorf("/v1/stats holds %d trajectories and %d tokens; the benchmark trained %d and %d",
			st.Trajectories, st.Tokens, len(s.in.train), points(s.in.train))
	}
	return r, p, nil, err
}

// close stops the server with SIGTERM (its graceful drain), kills it if it
// has not exited within the drain timeout, and removes its work directory.
func (s *serveSession) close() {
	if s.cmd != nil && s.cmd.Process != nil {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(20 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	if s.work != "" {
		os.RemoveAll(s.work)
	}
}

func (s *serveSession) windows() int { return 6 }
