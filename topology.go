package silkroute

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
)

// Topology declares the backend shape a Dial connects to, replacing the
// sprawl of per-shape constructors with one value: a single endpoint, a
// replica group of endpoints serving the same data, or a shard list of
// replica groups serving horizontal partitions. The zero Topology means
// "no endpoint declared", which Dial refuses.
//
// Topologies compose: Sharded(Replicas("a","b"), Replicas("c","d"))
// declares a 2-shard × 2-replica grid, where every shard's stream heals
// itself (WithResume's reopens, each on another replica of its group)
// underneath the scatter-gather merge. ParseTopology reads the same shapes from a flag-friendly string.
type Topology struct {
	// groups[i] is shard i's replica group; a 1-group topology is
	// unsharded, a 1-endpoint group is unreplicated.
	groups [][]endpoint
	// labels[i] optionally names shard i for errors and metrics.
	labels []string
}

// endpoint is one dialable backend server: a TCP address, or a custom
// dialer for tests and exotic transports.
type endpoint struct {
	addr string
	dial func(ctx context.Context) (net.Conn, error)
}

// Single declares a topology of one endpoint.
func Single(addr string) Topology {
	return Topology{groups: [][]endpoint{{{addr: addr}}}}
}

// SingleFunc declares a topology of one endpoint reached through a custom
// dialer. Such a topology cannot be rendered back to a string.
func SingleFunc(dial func(ctx context.Context) (net.Conn, error)) Topology {
	return Topology{groups: [][]endpoint{{{dial: dial}}}}
}

// Replicas declares a topology of one replica group: every address serves
// the same data, streams balance across them and fail over between them.
func Replicas(addrs ...string) Topology {
	g := make([]endpoint, len(addrs))
	for i, a := range addrs {
		g[i] = endpoint{addr: a}
	}
	return Topology{groups: [][]endpoint{g}}
}

// Sharded declares a topology whose shards are the given topologies, in
// partition order: shard i serves partition i. Each part contributes its
// groups (so already-sharded parts flatten into more shards) and its
// labels carry over.
func Sharded(shards ...Topology) Topology {
	var t Topology
	for _, s := range shards {
		for gi, g := range s.groups {
			t.groups = append(t.groups, g)
			if gi < len(s.labels) {
				t.labels = append(t.labels, s.labels[gi])
			} else {
				t.labels = append(t.labels, "")
			}
		}
	}
	return t
}

// IsZero reports whether the topology declares no endpoint at all.
func (t Topology) IsZero() bool { return len(t.groups) == 0 }

// Shards reports the shard count: 0 for the zero topology, 1 for
// unsharded shapes.
func (t Topology) Shards() int { return len(t.groups) }

// Replicas reports shard i's replica count.
func (t Topology) Replicas(i int) int {
	if i < 0 || i >= len(t.groups) {
		return 0
	}
	return len(t.groups[i])
}

// String renders the topology in ParseTopology's syntax: replica
// addresses joined by ",", shards separated by ";" with "sN=" labels when
// sharded. Custom-dialer endpoints render as "(func)" and do not
// round-trip.
func (t Topology) String() string {
	if t.IsZero() {
		return ""
	}
	var b strings.Builder
	for i, g := range t.groups {
		if i > 0 {
			b.WriteByte(';')
		}
		if len(t.groups) > 1 {
			fmt.Fprintf(&b, "s%d=", i)
		}
		for j, e := range g {
			if j > 0 {
				b.WriteByte(',')
			}
			if e.addr != "" {
				b.WriteString(e.addr)
			} else {
				b.WriteString("(func)")
			}
		}
	}
	return b.String()
}

// shardNames labels shards for wire.WithShardNames: the "sN=" label when
// one was parsed, otherwise the shard's address list.
func (t Topology) shardNames() []string {
	names := make([]string, len(t.groups))
	for i, g := range t.groups {
		if i < len(t.labels) && t.labels[i] != "" {
			names[i] = t.labels[i]
			continue
		}
		parts := make([]string, len(g))
		for j, e := range g {
			if e.addr != "" {
				parts[j] = e.addr
			} else {
				parts[j] = "(func)"
			}
		}
		names[i] = strings.Join(parts, ",")
	}
	return names
}

// TopologyError is a topology-string parse failure, carrying the byte
// offset of the offending token so loaders can render file:line:col
// diagnostics the way the RXL loader does (see rxl.LineCol).
type TopologyError struct {
	// Offset is the byte offset into the topology string, or -1 when the
	// error has no position.
	Offset int
	Msg    string
}

func (e *TopologyError) Error() string {
	return "silkroute: topology: " + e.Msg
}

// ParseTopology parses a flag-friendly topology string:
//
//	"a:5943"                    one endpoint
//	"a:5943,b:5943"             one replica group (same data)
//	"s0=a,b;s1=c,d"             two shards × two replicas
//	"a,b;c,d"                   same, labels implied
//
// ";" separates shards, "," separates the replica addresses within one,
// and an optional "sN=" label must match the shard's position. Errors are
// *TopologyError values carrying byte offsets.
func ParseTopology(s string) (Topology, error) {
	if strings.TrimSpace(s) == "" {
		return Topology{}, &TopologyError{Offset: 0, Msg: "empty topology"}
	}
	var t Topology
	segs := strings.Split(s, ";")
	off := 0
	for i, seg := range segs {
		segOff := off
		off += len(seg) + 1
		body := seg
		label := ""
		if eq := strings.IndexByte(seg, '='); eq >= 0 {
			label = strings.TrimSpace(seg[:eq])
			body = seg[eq+1:]
			want := "s" + strconv.Itoa(i)
			if label != want {
				if n, err := strconv.Atoi(strings.TrimPrefix(label, "s")); err == nil && strings.HasPrefix(label, "s") {
					return Topology{}, &TopologyError{Offset: segOff,
						Msg: fmt.Sprintf("shard label %q out of order: segment %d must be %q (got index %d)", label, i, want, n)}
				}
				return Topology{}, &TopologyError{Offset: segOff,
					Msg: fmt.Sprintf("bad shard label %q: segment %d must be labeled %q", label, i, want)}
			}
			segOff += eq + 1
		}
		if strings.TrimSpace(body) == "" {
			return Topology{}, &TopologyError{Offset: segOff,
				Msg: fmt.Sprintf("shard %d: empty replica group", i)}
		}
		var g []endpoint
		aoff := segOff
		for _, a := range strings.Split(body, ",") {
			addr := strings.TrimSpace(a)
			if addr == "" {
				return Topology{}, &TopologyError{Offset: aoff,
					Msg: fmt.Sprintf("shard %d: empty address", i)}
			}
			g = append(g, endpoint{addr: addr})
			aoff += len(a) + 1
		}
		t.groups = append(t.groups, g)
		t.labels = append(t.labels, label)
	}
	return t, nil
}
