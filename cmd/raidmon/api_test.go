package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/monitor"
)

// TestAPIEndpoints drives the workload with the monitoring plane
// sampling after every step and checks the /api/v1 surface: query over a
// live counter, the alert list (built-in default rules), and a health
// verdict that reflects the fault episodes the driver injects.
func TestAPIEndpoints(t *testing.T) {
	m, err := newMonitor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ { // crosses rebuild (20, 40, 60) and scrub (50) episodes
		if err := m.runStep(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		m.mon.Tick()
	}
	srv := httptest.NewServer(m.mux)
	defer srv.Close()

	getJSON := func(path string, out any) int {
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
		if resp.StatusCode == http.StatusOK && out != nil {
			if err := json.Unmarshal(body, out); err != nil {
				t.Fatalf("GET %s: bad JSON %v\n%s", path, err, body)
			}
		}
		return resp.StatusCode
	}

	// The scrub episodes moved raid.scrub.repairs; the time-series store
	// sampled it every step.
	var qr monitor.QueryResponse
	if code := getJSON("/api/v1/query?metric=raid.scrub.repairs&fn=increase&window=10m", &qr); code != http.StatusOK {
		t.Fatalf("/api/v1/query: status %d", code)
	}
	if qr.Value == nil || *qr.Value == 0 {
		t.Errorf("scrub repair increase = %v, want > 0", qr.Value)
	}
	// The runtime sampler feeds Go metrics into the same store.
	if code := getJSON("/api/v1/query?metric=go.goroutines&fn=last", &qr); code != http.StatusOK {
		t.Fatalf("go.goroutines query: status %d", code)
	}
	if qr.Value == nil || *qr.Value < 1 {
		t.Errorf("go.goroutines = %v, want >= 1", qr.Value)
	}

	var ar monitor.AlertsResponse
	getJSON("/api/v1/alerts", &ar)
	if len(ar.Alerts) != len(monitor.DefaultRules()) {
		t.Errorf("alerts endpoint lists %d rules, want the %d defaults",
			len(ar.Alerts), len(monitor.DefaultRules()))
	}

	var h monitor.Health
	getJSON("/api/v1/health", &h)
	// The driver injected corruption and served degraded reads inside the
	// health window, so the verdict must not be healthy — and the reasons
	// must name the counters.
	if h.Verdict == monitor.Healthy {
		t.Errorf("health = %v after fault episodes, want degraded or worse (%+v)", h.Verdict, h.Reasons)
	}
	if len(h.Reasons) == 0 {
		t.Error("health verdict carries no reasons")
	}
	for _, r := range h.Reasons {
		if r.Metric == "" {
			t.Errorf("reason %+v does not name a metric", r)
		}
	}
}

// TestRulesFileFlag: a -rules file replaces the built-in defaults, and a
// broken one fails startup.
func TestRulesFileFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alerts.json")
	rules := `{"rules": [{"name": "scrubs", "metric": "raid.scrub.repairs",
		"kind": "threshold", "op": ">", "value": 0, "window": "5m", "severity": "critical"}]}`
	if err := os.WriteFile(path, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.rules = path
	m, err := newMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.mon.Alerts(); len(got) != 1 || got[0].Rule.Name != "scrubs" {
		t.Fatalf("rules file produced alerts %+v, want the one scrubs rule", got)
	}

	if err := os.WriteFile(path, []byte(`{"rules": [{"name": ""}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newMonitor(cfg); err == nil {
		t.Error("invalid rules file accepted")
	}
	cfg.rules = filepath.Join(dir, "missing.json")
	if _, err := newMonitor(cfg); err == nil {
		t.Error("missing rules file accepted")
	}
}

// TestConcurrentAPIScrapes hammers the /api/v1 endpoints while the
// workload driver runs and the monitor ticks — under -race this pins the
// scrape-while-sampling contract on the full raidmon mux.
func TestConcurrentAPIScrapes(t *testing.T) {
	m, err := newMonitor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.mux)
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{
		"/api/v1/health",
		"/api/v1/alerts",
		"/api/v1/query?metric=raid.scrub.repairs&fn=rate&window=30s",
		"/metrics?format=json",
	} {
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
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				if resp.StatusCode == http.StatusOK {
					var v map[string]any
					if err := json.Unmarshal(body, &v); err != nil {
						t.Errorf("%s: torn JSON: %v", path, err)
						return
					}
				}
			}
		}(path)
	}
	for i := 0; i < 120; i++ {
		if err := m.runStep(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		m.mon.Tick()
	}
	close(done)
	wg.Wait()
	if m.mon.Store().Rounds() != 120 {
		t.Errorf("monitor sampled %d rounds, want 120", m.mon.Store().Rounds())
	}
}
