package metrics

import (
	"os"
	"strings"
	"testing"
)

func TestParseTextAccepts(t *testing.T) {
	doc := `# HELP a_total things
# TYPE a_total counter
a_total 5
# HELP g a gauge
# TYPE g gauge
g{host="x",zone="a b"} -3.5
# HELP h_seconds hist
# TYPE h_seconds histogram
h_seconds_bucket{le="0.001"} 1
h_seconds_bucket{le="+Inf"} 2
h_seconds_sum 1.5
h_seconds_count 2
`
	fams, err := ParseText(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if fams["a_total"] != 1 || fams["g"] != 1 || fams["h_seconds"] != 4 {
		t.Fatalf("family sample counts wrong: %v", fams)
	}
}

func TestParseTextRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "a_total 5\n",
		"bad metric name":     "# TYPE 9bad counter\n9bad 1\n",
		"bad value":           "# TYPE a counter\na five\n",
		"missing value":       "# TYPE a counter\na\n",
		"unquoted label":      "# TYPE a counter\na{x=1} 1\n",
		"bad label name":      "# TYPE a counter\na{9x=\"1\"} 1\n",
		"unterminated labels": "# TYPE a counter\na{x=\"1\" 1\n",
		"bad escape":          "# TYPE a counter\na{x=\"\\q\"} 1\n",
		"dup TYPE":            "# TYPE a counter\n# TYPE a gauge\na 1\n",
		"unknown type":        "# TYPE a enum\na 1\n",
		"malformed comment":   "# NOPE a\n",
		"bucket without le":   "# TYPE h histogram\nh_bucket 1\n",
		"bad le":              "# TYPE h histogram\nh_bucket{le=\"x\"} 1\n",
		"decreasing buckets":  "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
		"no +Inf bucket":      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\n",
		"Inf != count":        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n",
		"bare histogram name": "# TYPE h histogram\nh 1\n",
	}
	for name, doc := range cases {
		if _, err := ParseText(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected error for:\n%s", name, doc)
		}
	}
}

func TestParseTextInfNaNValues(t *testing.T) {
	doc := "# TYPE g gauge\ng{k=\"a\"} +Inf\ng{k=\"b\"} -Inf\ng{k=\"c\"} NaN\ng{k=\"d\"} 1e-9\n"
	if _, err := ParseText(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
}

// TestParseScrapeArtifact validates a scrape file captured externally
// (the CI bench-smoke job scrapes /metrics mid-run and hands the file
// over via VOLCANO_SCRAPE_FILE). Skips when the variable is unset.
func TestParseScrapeArtifact(t *testing.T) {
	path := os.Getenv("VOLCANO_SCRAPE_FILE")
	if path == "" {
		t.Skip("VOLCANO_SCRAPE_FILE not set")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fams, err := ParseText(f)
	if err != nil {
		t.Fatalf("scrape artifact does not parse: %v", err)
	}
	// A mid-run scrape of the bench pipeline must cover the major
	// subsystem families.
	for _, want := range []string{
		"volcano_buffer_fixes_total",
		"volcano_device_page_reads_total",
		"volcano_exchange_packets_total",
	} {
		if fams[want] == 0 {
			t.Errorf("scrape missing family %s (got %v)", want, fams)
		}
	}
}
