package metrics

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("volcano_test_total", "test counter").Add(9)
	r.Histogram("volcano_test_seconds", "test latency").Observe(time.Millisecond)

	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + s.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	if !strings.Contains(body, "volcano_test_total 9") {
		t.Fatalf("counter missing from scrape:\n%s", body)
	}
	if !strings.Contains(body, `volcano_test_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("histogram missing from scrape:\n%s", body)
	}
	if _, err := ParseText(strings.NewReader(body)); err != nil {
		t.Fatalf("live scrape does not parse: %v", err)
	}

	if code, body = get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Fatalf("pprof index: status %d body %q", code, body)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", code)
	}
}

func TestServeNilRegistry(t *testing.T) {
	s, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(b) != 0 {
		t.Fatalf("nil registry scrape: status %d body %q", resp.StatusCode, b)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", nil); err == nil {
		t.Fatal("expected listen error")
	}
}

func TestServerNilClose(t *testing.T) {
	var s *Server
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
