package service

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cpsdyn/internal/cluster"
	"cpsdyn/internal/obs"
)

// metricFamilies splits a /metrics page into family blocks — a "# HELP"
// line plus the TYPE and sample lines after it — keyed by family name.
func metricFamilies(text string) map[string]string {
	fams := make(map[string]string)
	name := ""
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ = strings.Cut(rest, " ")
		}
		fams[name] += line
	}
	return fams
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// The /metrics golden. testdata holds quiescent /statsz + /metrics pairs
// captured from a plain server, a store-backed one (after Store.Flush) and
// a 2-replica gateway while /metrics was still a hand-written list; the
// store pair later gained the dropped/writeErrors counters. Rendering the
// decoded /statsz capture must give every captured family byte for byte.
// The struct walk orders families differently and Prometheus gives family
// order no meaning, so blocks are compared by name.
func TestMetricsGolden(t *testing.T) {
	for _, mode := range []string{"plain", "store", "gateway"} {
		t.Run(mode, func(t *testing.T) {
			statsz, err := os.ReadFile(filepath.Join("testdata", "statsz_"+mode+".json"))
			if err != nil {
				t.Fatal(err)
			}
			metrics, err := os.ReadFile(filepath.Join("testdata", "metrics_"+mode+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			// Strict decoding: a renamed JSON key fails here instead of
			// rendering as a zero.
			var st StatszResponse
			if err := decodeStrict(statsz, &st); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			writeMetrics(&b, st)
			got, want := metricFamilies(b.String()), metricFamilies(string(metrics))
			for name, block := range want {
				if got[name] != block {
					t.Errorf("family %q:\n got %q\nwant %q", name, got[name], block)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("family %q is not in the golden", name)
				}
			}
		})
	}
}

// The golden gateway is healthy, so pin the slice rule on a degraded one:
// the peer count, the down peers (a true bool counts one) and the summed
// failures, with the JSON-only per-peer rows left out.
func TestMetricsSumSliceFields(t *testing.T) {
	var b strings.Builder
	writeMetrics(&b, StatszResponse{Gateway: &cluster.Stats{PeerRows: 9, Peers: []cluster.PeerStats{
		{Name: "a", Down: true, Rows: 4, Failures: 2},
		{Name: "b", Rows: 5, Failures: 5},
		{Name: "c", Down: true},
	}}})
	fams := metricFamilies(b.String())
	for name, sample := range map[string]string{
		"cpsdynd_peers":               "cpsdynd_peers 3\n",
		"cpsdynd_peers_down":          "cpsdynd_peers_down 2\n",
		"cpsdynd_peer_failures_total": "cpsdynd_peer_failures_total 7\n",
		"cpsdynd_peer_rows_total":     "cpsdynd_peer_rows_total 9\n",
	} {
		if !strings.HasSuffix(fams[name], sample) {
			t.Errorf("family %s = %q, want sample %q", name, fams[name], sample)
		}
	}
	if len(fams) != 33+5 {
		t.Errorf("rendered %d families, want the 33 plain ones plus the 5 gateway series", len(fams))
	}
}

// metricsCoverage walks every exported field reachable from StatszResponse
// and reports what keeps /metrics from covering it: a numeric, bool, slice
// or histogram field without a metric tag (metric:"-" opts a field out),
// a tag on a type the renderer cannot read, a tag without help text, and
// two fields claiming one family.
func metricsCoverage(typ reflect.Type) []string {
	var problems []string
	owner := make(map[string]string) // family name → field path
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			path := path + "." + f.Name
			name, tagged := f.Tag.Lookup("metric")
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			leaf := ft == snapshotType || ft.Kind() == reflect.Slice || numeric(ft.Kind())
			switch {
			case !f.IsExported() || name == "-":
			case !tagged && leaf:
				problems = append(problems, path+": no metric tag")
			case !tagged:
				if ft.Kind() == reflect.Struct {
					walk(ft, path)
				}
			case !leaf:
				problems = append(problems, path+": /metrics cannot render a "+ft.String())
			default:
				if f.Tag.Get("help") == "" {
					problems = append(problems, path+": empty help")
				}
				if prev, dup := owner[name]; dup {
					problems = append(problems, path+": metric "+name+" already belongs to "+prev)
				}
				owner[name] = path
				if ft.Kind() == reflect.Slice {
					walk(ft.Elem(), path+"[]")
				}
			}
		}
	}
	walk(typ, typ.Name())
	return problems
}

func numeric(k reflect.Kind) bool {
	return k == reflect.Bool || (k >= reflect.Int && k <= reflect.Uint64) ||
		k == reflect.Float32 || k == reflect.Float64
}

// Every counter /statsz serves is exported on /metrics, by construction
// plus this check.
func TestMetricTagsCoverStatsz(t *testing.T) {
	for _, p := range metricsCoverage(reflect.TypeFor[StatszResponse]()) {
		t.Error(p)
	}
	// The check reports each of its three faults.
	type broken struct {
		Untagged uint64
		NoHelp   uint64 `metric:"a_total"`
		Again    bool   `metric:"a_total" help:"A."`
	}
	if got := metricsCoverage(reflect.TypeFor[broken]()); len(got) != 3 {
		t.Errorf("broken struct: got problems %q, want untagged, empty help and duplicate", got)
	}
}

// The gateway-only series must really be absent on a plain server rather
// than served as zeros, matching the omitempty gateway statsz block. The
// peer round-trip histogram is gateway-only the same way.
func TestPlainServerServesNoGatewaySeries(t *testing.T) {
	ts := newTestServer(t, Config{})
	for name := range metricFamilies(scrapeMetrics(t, ts.URL)) {
		if strings.HasPrefix(name, "cpsdynd_peer") || strings.Contains(name, "peer_round_trip") {
			t.Errorf("plain server serves gateway series %q", name)
		}
	}
}

// scrapeHistogramFamilies parses the /metrics text into per-family triplets:
// ordered (le, count) bucket pairs plus the _sum and _count values.
type histogramFamily struct {
	buckets []obs.Bucket
	sum     float64
	count   uint64
	hasSum  bool
	hasCnt  bool
}

func scrapeHistogramFamilies(t *testing.T, url string) map[string]*histogramFamily {
	t.Helper()
	fams := make(map[string]*histogramFamily)
	family := func(name string) *histogramFamily {
		f := fams[name]
		if f == nil {
			f = &histogramFamily{}
			fams[name] = f
		}
		return f
	}
	var err error
	sc := bufio.NewScanner(strings.NewReader(scrapeMetrics(t, url)))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.Contains(name, "_latency_") {
			continue
		}
		switch {
		case strings.Contains(name, "_bucket{le="):
			fam, label, _ := strings.Cut(name, "_bucket{le=\"")
			le := math.Inf(1)
			if !strings.HasPrefix(label, "+Inf") {
				if le, err = strconv.ParseFloat(strings.TrimSuffix(label, "\"}"), 64); err != nil {
					t.Fatalf("bucket label %q: %v", name, err)
				}
			}
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", line, err)
			}
			family(fam).buckets = append(family(fam).buckets, obs.Bucket{LE: le, N: n})
		case strings.HasSuffix(name, "_sum"):
			f := family(strings.TrimSuffix(name, "_sum"))
			if f.sum, err = strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("sum value %q: %v", line, err)
			}
			f.hasSum = true
		case strings.HasSuffix(name, "_count"):
			f := family(strings.TrimSuffix(name, "_count"))
			if f.count, err = strconv.ParseUint(val, 10, 64); err != nil {
				t.Fatalf("count value %q: %v", line, err)
			}
			f.hasCnt = true
		}
	}
	return fams
}

// The histogram triplets must be internally consistent — cumulative bucket
// counts monotone with increasing bounds, the mandatory +Inf bucket equal
// to _count — and must agree with the /statsz latency block they are
// rendered from, so the two pages describe one distribution.
func TestStatszMetricsHistogramTriplets(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, _ := postJSON(t, ts.URL+"/v1/derive", servoDeriveRequest(2))
	if code != http.StatusOK {
		t.Fatalf("derive status = %d", code)
	}
	fams := scrapeHistogramFamilies(t, ts.URL)
	if len(fams) == 0 {
		t.Fatal("no cpsdynd_latency_* histogram families on /metrics")
	}
	for name, f := range fams {
		if !f.hasSum || !f.hasCnt {
			t.Errorf("family %s missing _sum or _count", name)
			continue
		}
		if len(f.buckets) == 0 || !math.IsInf(f.buckets[len(f.buckets)-1].LE, 1) {
			t.Errorf("family %s has no le=\"+Inf\" bucket", name)
			continue
		}
		for i := 1; i < len(f.buckets); i++ {
			if f.buckets[i].N < f.buckets[i-1].N || f.buckets[i].LE <= f.buckets[i-1].LE {
				t.Errorf("family %s buckets not monotone at %d: %+v", name, i, f.buckets)
			}
		}
		if inf := f.buckets[len(f.buckets)-1].N; inf != f.count {
			t.Errorf("family %s +Inf bucket = %d, _count = %d", name, inf, f.count)
		}
	}

	// Cross-check the derive family against the /statsz latency block. The
	// derive endpoint saw exactly one request and no concurrent traffic, so
	// the two scrapes must agree exactly.
	var statsz StatszResponse
	if code := getJSON(t, ts.URL+"/statsz", &statsz); code != http.StatusOK {
		t.Fatalf("/statsz status = %d", code)
	}
	f := fams["cpsdynd_latency_derive_seconds"]
	if f == nil {
		t.Fatal("cpsdynd_latency_derive_seconds family missing")
	}
	snap := statsz.Latency.Derive
	if f.count != snap.Count || f.count == 0 {
		t.Errorf("derive _count = %d, statsz count = %d (want equal, nonzero)", f.count, snap.Count)
	}
	if f.sum != snap.Sum {
		t.Errorf("derive _sum = %g, statsz sum = %g", f.sum, snap.Sum)
	}
	for i, b := range snap.Buckets {
		if i >= len(f.buckets)-1 || f.buckets[i] != b {
			t.Fatalf("derive bucket %d: metrics %+v, statsz %+v", i, f.buckets, snap.Buckets)
		}
	}
}
