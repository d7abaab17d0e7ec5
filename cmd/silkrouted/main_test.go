package main

import (
	"reflect"
	"testing"

	"silkroute/internal/viewsvc"
)

func TestParseTenants(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want map[string]viewsvc.TenantLimits // nil with ok false: an error
		ok   bool
	}{
		{"", nil, true},
		{"acme=50:10:4", map[string]viewsvc.TenantLimits{"acme": {Rate: 50, Burst: 10, MaxConcurrent: 4}}, true},
		{"acme=2.5", map[string]viewsvc.TenantLimits{"acme": {Rate: 2.5}}, true},
		{"acme=:3", map[string]viewsvc.TenantLimits{"acme": {Burst: 3}}, true},
		{"acme=::2", map[string]viewsvc.TenantLimits{"acme": {MaxConcurrent: 2}}, true},
		{"acme=50:10:4, batch=2:1:1", map[string]viewsvc.TenantLimits{
			"acme":  {Rate: 50, Burst: 10, MaxConcurrent: 4},
			"batch": {Rate: 2, Burst: 1, MaxConcurrent: 1},
		}, true},
		{"acme=5x", nil, false},      // trailing bytes after the rate
		{"acme=10ms", nil, false},    // a duration is not a rate
		{"acme=1:2x", nil, false},    // trailing bytes after the burst
		{"acme=1:2:3x", nil, false},  // trailing bytes after the concurrency
		{"acme=1:2:3:4", nil, false}, // a fourth field
		{"acme=1.5:2.5", nil, false}, // a fractional burst
		{"acme", nil, false},         // no "="
		{"=5", nil, false},           // no name
	} {
		got, err := parseTenants(tc.spec)
		if (err == nil) != tc.ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseTenants(%q) = %v, %v; want %v, ok=%v", tc.spec, got, err, tc.want, tc.ok)
		}
	}
}

func TestCheckServeStale(t *testing.T) {
	for _, tc := range []struct {
		serveStale bool
		fragCache  int64
		connect    string
		breaker    int
		ok         bool
	}{
		{false, 0, "", 0, true}, // off: nothing to check
		{true, -1, "a:7070", 1, true},
		{true, 1 << 20, "a:7070,b:7070", 3, true},
		{true, 0, "a:7070", 1, false},  // no fragment cache
		{true, -1, "", 1, false},       // local backend: never unhealthy
		{true, -1, "a:7070", 0, false}, // no breaker: never opens
		{true, -1, "", 0, false},
	} {
		err := checkServeStale(tc.serveStale, tc.fragCache, tc.connect, tc.breaker)
		if (err == nil) != tc.ok {
			t.Errorf("checkServeStale(%v, %d, %q, %d) = %v, want ok=%v", tc.serveStale, tc.fragCache, tc.connect, tc.breaker, err, tc.ok)
		}
	}
}
