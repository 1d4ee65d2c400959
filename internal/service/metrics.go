package service

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"

	"cpsdyn/internal/obs"
)

// handleMetrics serves the /statsz snapshot in Prometheus text exposition
// format (version 0.0.4), hand-rolled so fleet dashboards can scrape
// cpsdynd without this module growing a client-library dependency. Both
// pages render one StatszResponse, and every family is declared once, on
// the stats field that holds it, so the two cannot drift.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	writeMetrics(&b, s.statsz())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// metricPrefix namespaces every family; the metric tags omit it.
const metricPrefix = "cpsdynd_"

var snapshotType = reflect.TypeFor[obs.Snapshot]()

// writeMetrics renders every field of st tagged metric:"<name>" with its
// help:"…" text, walking untagged structs and non-nil pointers to them:
//
//   - an obs.Snapshot (value or pointer) is a histogram triplet;
//   - a name ending in _total is a counter, any other name a gauge;
//   - a nil pointer renders nothing, so a plain server serves no store or
//     gateway series;
//   - a tagged slice renders its length, then each tagged field of its
//     elements summed over the slice (a bool counts one when true);
//   - metric:"-" marks a field that is JSON-only.
func writeMetrics(b *strings.Builder, st StatszResponse) {
	writeStruct(b, reflect.ValueOf(st))
}

func writeStruct(b *strings.Builder, v reflect.Value) {
	t := v.Type()
	for i := range t.NumField() {
		f := t.Field(i)
		name, tagged := f.Tag.Lookup("metric")
		if !f.IsExported() || name == "-" {
			continue
		}
		fv := reflect.Indirect(v.Field(i)) // invalid for a nil pointer
		help := f.Tag.Get("help")
		switch {
		case !fv.IsValid():
		case fv.Type() == snapshotType:
			writeHistogram(b, name, help, fv.Interface().(obs.Snapshot))
		case !tagged:
			if fv.Kind() == reflect.Struct {
				writeStruct(b, fv)
			}
		case fv.Kind() == reflect.Slice:
			writeSample(b, name, help, float64(fv.Len()))
			writeSums(b, fv)
		default:
			writeSample(b, name, help, number(fv))
		}
	}
}

// writeSums renders each tagged field of a slice's element struct as the
// sum of that field over the slice.
func writeSums(b *strings.Builder, s reflect.Value) {
	t := s.Type().Elem()
	for i := range t.NumField() {
		f := t.Field(i)
		name := f.Tag.Get("metric")
		if name == "" || name == "-" {
			continue
		}
		var sum float64
		for j := range s.Len() {
			sum += number(s.Index(j).Field(i))
		}
		writeSample(b, name, f.Tag.Get("help"), sum)
	}
}

// number reads a numeric or bool field as a sample value.
func number(v reflect.Value) float64 {
	if v.Kind() == reflect.Bool {
		if v.Bool() {
			return 1
		}
		return 0
	}
	return v.Convert(reflect.TypeFor[float64]()).Float()
}

func writeSample(b *strings.Builder, name, help string, v float64) {
	name = metricPrefix + name
	typ := "gauge"
	if strings.HasSuffix(name, "_total") {
		typ = "counter"
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
}

// writeHistogram renders one latency histogram as the Prometheus triplet:
// cumulative _bucket series (the snapshot's buckets are already cumulative
// and elide empty trailing ones; the mandatory le="+Inf" bucket is the
// total count by construction), then _sum and _count. Family names end in
// _seconds and bounds are seconds, per the exposition conventions.
func writeHistogram(b *strings.Builder, name, help string, snap obs.Snapshot) {
	name = metricPrefix + name
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, bk := range snap.Buckets {
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, bk.LE, bk.N)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	fmt.Fprintf(b, "%s_sum %g\n%s_count %d\n", name, snap.Sum, name, snap.Count)
}
