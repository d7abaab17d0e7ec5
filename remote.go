package silkroute

import (
	"errors"
	"fmt"

	"silkroute/internal/rxl"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

// Remote is a SilkRoute connection to a database served elsewhere over the
// wire protocol — the paper's actual deployment: the middleware runs on a
// client machine, submits SQL over the network, and asks the remote
// optimizer for cost estimates.
//
// The connection keeps a bounded pool of idle wire connections per
// endpoint; a failed open is not retried, though a replicated topology
// moves on to its next replica. A Remote is safe for concurrent use; Close it when done to release the
// pool.
type Remote struct {
	client wire.Backend

	// source is the source description attached with WithSource; nil until
	// one is provided. NewHandle compiles views against it.
	source *Schema

	caches caches
}

// Dial is the single constructor behind every remote connection shape: it
// takes a declarative Topology — Single(addr), Replicas(addrs...),
// Sharded(groups...), SingleFunc(dialer), or ParseTopology's flag string —
// and builds the matching wire backend: a pooled client, a replica set
// balanced on each replica's circuit breaker with cross-replica failover,
// or a shard set that scatters every stream and k-way-merges the sorted
// partials.
// Grids compose: each shard of a Sharded topology is its own replica
// group whose streams heal themselves underneath the merge.
//
// The option list carries the connection policy (resume, breaker)
// and the source description (WithSource), so a server's per-backend
// config maps 1:1 onto one option slice. A topology with no endpoint, or
// with an empty replica group, is an error.
func Dial(t Topology, opts ...Option) (*Remote, error) {
	if t.IsZero() {
		return nil, errors.New("silkroute: Dial: topology declares no endpoint")
	}
	for i, g := range t.groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("silkroute: Dial: replica group %d needs at least one address", i)
		}
	}
	c := buildConfig(opts)
	r := &Remote{source: c.source}
	backends := make([]wire.Backend, len(t.groups))
	for i, g := range t.groups {
		if len(g) == 1 {
			backends[i] = dialEndpoint(g[0], c)
			continue
		}
		clients := make([]*wire.Client, len(g))
		names := make([]string, len(g))
		for j, e := range g {
			clients[j] = dialEndpoint(e, c)
			names[j] = e.addr
		}
		backends[i] = wire.NewReplicaSet(clients, wire.WithReplicaNames(names))
	}
	if len(backends) == 1 {
		r.client = backends[0]
	} else {
		r.client = wire.NewShardSet(backends, wire.WithShardNames(t.shardNames()))
	}
	return r, nil
}

// dialEndpoint builds one endpoint's pooled client under the shared
// connection policy.
func dialEndpoint(e endpoint, c *config) *wire.Client {
	if e.dial != nil {
		return wire.NewClient(e.dial, c.clientOptions()...)
	}
	return wire.Dial(e.addr, c.clientOptions()...)
}

// Close releases the connection pool. In-flight requests finish on their
// own connections; new requests fail.
func (r *Remote) Close() error { return r.client.Close() }

// IdleConns reports how many pooled connections are currently idle —
// useful for verifying that cancellation released everything.
func (r *Remote) IdleConns() int { return r.client.IdleConns() }

// ParseRemoteView compiles an RXL view against a remote database. The
// schema is the *source description* the paper's middleware keeps locally:
// relations, keys, and the foreign-key totality constraints that drive
// edge labeling — the data itself stays on the server. A nil schema falls
// back to the connection's WithSource description.
func ParseRemoteView(r *Remote, s *Schema, src string, opts ...Option) (*View, error) {
	if s == nil {
		if s = r.source; s == nil {
			return nil, errors.New("silkroute: ParseRemoteView: no source description — pass a schema or dial with WithSource")
		}
	}
	q, err := rxl.Parse(src)
	if err != nil {
		return nil, err
	}
	tree, err := viewtree.Build(q, s.s)
	if err != nil {
		return nil, err
	}
	v := &View{remote: r, tree: tree}
	buildConfig(opts).apply(v)
	return v, nil
}

// TPCHSourceDescription returns the source description of the built-in
// TPC-H fragment schema, for middleware instances that evaluate views
// against a remote TPC-H server.
func TPCHSourceDescription() *Schema {
	return &Schema{s: tpch.Schema()}
}
