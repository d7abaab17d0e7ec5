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
