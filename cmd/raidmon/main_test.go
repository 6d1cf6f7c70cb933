package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func testConfig() config {
	return config{
		codeName: "liberation", k: 5, p: 5, elem: 16, stripes: 8,
		workload: "random-small", seed: 7,
	}
}

// TestServesLiveMetrics drives the workload far enough to trigger the
// fault episodes, then exercises every HTTP surface the monitor exposes.
func TestServesLiveMetrics(t *testing.T) {
	m, err := newMonitor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ { // crosses the rebuild (20) and scrub (50) episodes
		if err := m.runStep(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}

	srv := httptest.NewServer(m.mux)
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	// Prometheus exposition by default.
	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q not Prometheus text", ctype)
	}
	for _, want := range []string{
		"raid_write_seconds_bucket",
		"raid_write_xors",
		"liberation_encode_calls",
		"raid_rebuild_progress",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// JSON snapshot with reassembled span families.
	code, body, ctype = get("/metrics?format=json")
	if code != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/metrics?format=json: status %d, type %q", code, ctype)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]float64
		Spans    map[string]struct {
			Calls uint64  `json:"calls"`
			XORs  uint64  `json:"xors"`
			Ratio float64 `json:"xors_per_unit"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if snap.Spans["raid.write"].Calls == 0 {
		t.Error("no raid.write spans in JSON snapshot")
	}
	if snap.Spans["liberation.encode"].Ratio != 4 { // k-1 for k=5
		t.Errorf("encode xors_per_unit = %v, want 4", snap.Spans["liberation.encode"].Ratio)
	}
	if snap.Counters["raid.stripes_rebuilt"] == 0 {
		t.Error("fault episode did not rebuild any stripes")
	}
	if snap.Counters["raid.scrub.repairs"] == 0 {
		t.Error("scrub episode did not repair the injected corruption")
	}
	if snap.Gauges["raid.rebuild.progress"] != 1 {
		t.Errorf("rebuild progress %v, want 1", snap.Gauges["raid.rebuild.progress"])
	}

	// Human-readable front page and health probe.
	if code, body, _ = get("/"); code != http.StatusOK || !strings.Contains(body, "raidmon:") {
		t.Errorf("/ status %d body %q...", code, body[:min(len(body), 60)])
	}
	if code, _, _ = get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz status %d", code)
	}
	if code, _, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _, _ = get("/nonexistent"); code != http.StatusNotFound {
		t.Errorf("/nonexistent status %d, want 404", code)
	}
}

// TestFlightEndpoint drives the workload across both fault episodes and
// checks /debug/flight serves their causal traces: episode spans with
// step/disk attributes, filterable by trace ID.
func TestFlightEndpoint(t *testing.T) {
	m, err := newMonitor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := m.runStep(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	srv := httptest.NewServer(m.mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Size   int `json:"size"`
		Total  int `json:"total"`
		Events []struct {
			Trace string         `json:"trace"`
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("/debug/flight JSON: %v", err)
	}
	names := make(map[string]int)
	traces := make(map[string]bool)
	for _, ev := range dump.Events {
		names[ev.Name]++
		traces[ev.Trace] = true
	}
	for _, want := range []string{"raid.episode.rebuild", "raid.disk_failed",
		"raid.rebuilt", "raid.episode.scrub", "raid.corrupt", "raid.scrub"} {
		if names[want] == 0 {
			t.Errorf("/debug/flight missing %q events (have %v)", want, names)
		}
	}
	// 60 steps: three rebuild episodes (20, 40, 60) and one scrub (50) —
	// four distinct traces.
	if len(traces) != 4 {
		t.Errorf("flight holds %d traces, want 4", len(traces))
	}

	// Trace filtering: one trace's events only.
	var one string
	for tr := range traces {
		one = tr
		break
	}
	resp2, err := http.Get(srv.URL + "/debug/flight?trace=" + one)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) == 0 {
		t.Fatalf("trace filter %q returned nothing", one)
	}
	for _, ev := range dump.Events {
		if ev.Trace != one {
			t.Errorf("filtered dump leaked trace %q (want %q)", ev.Trace, one)
		}
	}
}

// TestConcurrentScrapes runs the workload driver — and its episode
// traces writing into the flight recorder — while /metrics and
// /debug/flight are scraped concurrently. Under -race this pins the
// tear-safety contract: scrapes during active writes must return
// internally consistent JSON, never a torn record.
func TestConcurrentScrapes(t *testing.T) {
	m, err := newMonitor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.mux)
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/debug/flight", "/metrics?format=json", "/debug/flight?n=8"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d err %v", path, resp.StatusCode, err)
					return
				}
				if strings.HasPrefix(path, "/debug/flight") {
					var dump struct {
						Events []json.RawMessage `json:"events"`
					}
					if err := json.Unmarshal(body, &dump); err != nil {
						t.Errorf("%s: torn/invalid JSON: %v", path, err)
						return
					}
				}
			}
		}(path)
	}
	for i := 0; i < 120; i++ { // several episodes under live scraping
		if err := m.runStep(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
	if m.flight.Total() == 0 {
		t.Error("no flight events recorded during the run")
	}
}

// TestMonitorConfigErrors checks flag validation surfaces as errors.
func TestMonitorConfigErrors(t *testing.T) {
	bad := testConfig()
	bad.workload = "bogus"
	if _, err := newMonitor(bad); err == nil {
		t.Error("unknown workload accepted")
	}
	bad = testConfig()
	bad.codeName = "nope"
	if _, err := newMonitor(bad); err == nil {
		t.Error("unknown code accepted")
	}
	bad = testConfig()
	bad.writeSize = 1 << 30
	if _, err := newMonitor(bad); err == nil {
		t.Error("oversized write accepted")
	}
}
