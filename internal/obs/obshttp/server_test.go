package obshttp

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"drill/internal/obs"
	"drill/internal/sim"
	"drill/internal/units"
)

func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerServesSnapshots(t *testing.T) {
	reg := obs.NewRegistry(4)
	c := reg.Counter("drill_cells_done_total", `exp="fig6a"`, "Cells completed.")
	h := reg.Histogram("drill_fct_us", "", "Flow completion times.")

	srv, err := ServeConfig("127.0.0.1:0", Config{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Before any publication /metrics serves a live capture.
	code, body := scrape(t, srv.URL()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "drill_cells_done_total") {
		t.Fatalf("pre-snapshot scrape: code %d body:\n%s", code, body)
	}

	c.Add(3)
	h.Observe(120)
	h.Observe(4500)
	reg.Snapshot(250 * units.Microsecond)

	code, body = scrape(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("scrape code %d", code)
	}
	for _, want := range []string{
		"drill_snapshot_seq 1",
		"drill_snapshot_sim_time_seconds 0.00025",
		`drill_cells_done_total{exp="fig6a"} 3`,
		"# TYPE drill_fct_us histogram",
		`drill_fct_us_bucket{le="+Inf"} 2`,
		"drill_fct_us_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}

	code, body = scrape(t, srv.URL()+"/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("json scrape code %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/metrics.json invalid: %v\n%s", err, body)
	}
	if doc["sim_time_ns"].(float64) != 250000 {
		t.Fatalf("json sim_time_ns = %v", doc["sim_time_ns"])
	}

	reg.Snapshot(500 * units.Microsecond)
	code, body = scrape(t, srv.URL()+"/snapshots.json")
	if code != http.StatusOK {
		t.Fatalf("ring scrape code %d", code)
	}
	var ring []map[string]any
	if err := json.Unmarshal([]byte(body), &ring); err != nil {
		t.Fatalf("/snapshots.json invalid: %v\n%s", err, body)
	}
	if len(ring) != 2 {
		t.Fatalf("ring has %d snapshots, want 2", len(ring))
	}

	if code, body = scrape(t, srv.URL()+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

// TestEndpointStatusAndContentType pins every endpoint's status code and
// Content-Type header, with and without an engine source wired.
func TestEndpointStatusAndContentType(t *testing.T) {
	reg := obs.NewRegistry(4)
	reg.Counter("drill_x_total", "", "test").Add(1)

	// Without an engine source /engine.json is 404; everything else serves.
	plain := NewHandler(Config{Reg: reg})
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	if w := get(plain, "/engine.json"); w.Code != http.StatusNotFound {
		t.Errorf("/engine.json without source: code %d, want 404", w.Code)
	}

	var rep *obs.EngineReport
	full := NewHandler(Config{Reg: reg, Engine: func() *obs.EngineReport { return rep }})
	cases := []struct {
		path, ctype string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics.json", "application/json"},
		{"/snapshots.json", "application/json"},
		{"/engine.json", "application/json"},
		{"/healthz", "text/plain; charset=utf-8"},
	}
	for _, c := range cases {
		w := get(full, c.path)
		if w.Code != http.StatusOK {
			t.Errorf("%s: code %d, want 200", c.path, w.Code)
		}
		if got := w.Header().Get("Content-Type"); got != c.ctype {
			t.Errorf("%s: Content-Type %q, want %q", c.path, got, c.ctype)
		}
	}

	// A wired source with no report yet serves JSON null, not an error...
	if w := get(full, "/engine.json"); strings.TrimSpace(w.Body.String()) != "null" {
		t.Errorf("/engine.json before first report: body %q, want null", w.Body.String())
	}
	// ...and a published report round-trips.
	rep = &obs.EngineReport{
		Engine:   "sharded/2",
		Barriers: 7,
		Shards: []obs.EngineShard{{Shard: 0, ShardStat: sim.ShardStat{Events: 10}},
			{Shard: 1, ShardStat: sim.ShardStat{Events: 30}}},
	}
	var got obs.EngineReport
	if err := json.Unmarshal(get(full, "/engine.json").Body.Bytes(), &got); err != nil {
		t.Fatalf("/engine.json invalid: %v", err)
	}
	if got.Engine != "sharded/2" || got.Barriers != 7 || len(got.Shards) != 2 || got.Shards[1].Events != 30 {
		t.Errorf("/engine.json round-trip mismatch: %+v", got)
	}
}

// brokenWriter fails every body write, playing a scraper that hung up
// after the response headers went out.
type brokenWriter struct {
	httptest.ResponseRecorder
}

func (b *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("peer hung up") }

// TestOnWriteError checks the buffered-write error surfaces through the
// callback — per endpoint — instead of vanishing.
func TestOnWriteError(t *testing.T) {
	reg := obs.NewRegistry(4)
	var mu sync.Mutex
	var seen []string
	h := NewHandler(Config{
		Reg:    reg,
		Engine: func() *obs.EngineReport { return &obs.EngineReport{Engine: "wheel"} },
		OnWriteError: func(endpoint string, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				t.Errorf("%s: OnWriteError called with nil error", endpoint)
			}
			seen = append(seen, endpoint)
		},
	})
	for _, path := range []string{"/metrics", "/metrics.json", "/snapshots.json", "/engine.json", "/healthz"} {
		w := &brokenWriter{ResponseRecorder: *httptest.NewRecorder()}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	}
	mu.Lock()
	defer mu.Unlock()
	if got := strings.Join(seen, " "); got != "/metrics /metrics.json /snapshots.json /engine.json /healthz" {
		t.Errorf("OnWriteError endpoints = %q", got)
	}
}

// TestConcurrentScrapes hammers every endpoint from several goroutines
// while the registry keeps publishing snapshots — the data-race proof for
// scrape-during-run, meaningful under -race.
func TestConcurrentScrapes(t *testing.T) {
	reg := obs.NewRegistry(8)
	c := reg.Counter("drill_x_total", "", "test")
	srv, err := ServeConfig("127.0.0.1:0", Config{
		Reg:    reg,
		Engine: func() *obs.EngineReport { return &obs.EngineReport{Engine: "wheel"} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := units.Time(1); ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Add(1)
				reg.Snapshot(i * units.Microsecond)
			}
		}
	}()

	var scrapers sync.WaitGroup
	for _, path := range []string{"/metrics", "/metrics.json", "/snapshots.json", "/engine.json", "/healthz"} {
		for g := 0; g < 2; g++ {
			scrapers.Add(1)
			go func(path string) {
				defer scrapers.Done()
				for i := 0; i < 25; i++ {
					// t.Fatalf is off-limits in a goroutine, so no scrape().
					resp, err := http.Get(srv.URL() + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					_, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("%s: code %d read err %v", path, resp.StatusCode, rerr)
						return
					}
				}
			}(path)
		}
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
}
