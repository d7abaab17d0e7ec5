package main

import (
	"testing"
)

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		i, n int
		ok   bool
	}{
		{"0/2", 0, 2, true},
		{"3/4", 3, 4, true},
		{"1/2x", 0, 0, false},
		{"1x/2", 0, 0, false},
		{"1/2/3", 0, 0, false},
		{"1", 0, 0, false},
		{"/2", 0, 0, false},
		{"", 0, 0, false},
	} {
		i, n, err := parseShard(tc.in)
		if (err == nil) != tc.ok || i != tc.i || n != tc.n {
			t.Errorf("parseShard(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, i, n, err, tc.i, tc.n, tc.ok)
		}
	}
}

func TestTopology(t *testing.T) {
	for _, tc := range []struct {
		connect, chaos string
		connFlags      []string
		want           string // the topology's String(); "" is local
		ok             bool
	}{
		{"", "", nil, "", true},
		{"a:1", "", nil, "a:1", true},
		{"a:1,b:1", "", []string{"-resume"}, "a:1,b:1", true},
		{"s0=a:1,b:1;s1=c:1", "", []string{"-breaker"}, "s0=a:1,b:1;s1=c:1", true},
		{"a:1", "seed=7,cutrow=100", []string{"-chaos"}, "(func)", true},
		{"s1=a:1", "", nil, "", false},           // bad topology
		{"", "", []string{"-resume"}, "", false}, // policy without a remote
		{"", "", []string{"-breaker", "-breaker-cooldown"}, "", false},
		{"", "seed=7", []string{"-chaos"}, "", false},              // client chaos without a remote
		{"a:1,b:1", "seed=7", []string{"-chaos"}, "", false},       // chaos on a replica set
		{"s0=a:1;s1=b:1", "seed=7", []string{"-chaos"}, "", false}, // chaos on shards
		{"a:1", "nonsense", []string{"-chaos"}, "", false},         // bad chaos spec
	} {
		topo, err := topology(tc.connect, tc.chaos, tc.connFlags)
		if (err == nil) != tc.ok {
			t.Errorf("topology(%q, %q, %v) error = %v, want ok=%v", tc.connect, tc.chaos, tc.connFlags, err, tc.ok)
			continue
		}
		if got := topo.String(); got != tc.want {
			t.Errorf("topology(%q, %q, %v) = %q, want %q", tc.connect, tc.chaos, tc.connFlags, got, tc.want)
		}
	}
}
