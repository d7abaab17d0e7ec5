package wire

// Replica sets. The paper's middleware assumes one always-healthy RDBMS;
// this file lets it run against N replicas of the same database. Each
// replica keeps its own Client — pool, resume budget, circuit breaker,
// stale-conn eviction — and a balancer assigns every stream (and estimate)
// to one replica at execution time. The breaker is the only health
// signal: the balancer skips open breakers, prefers healthy replicas to
// probing ones, then the fewest in-flight streams, and sends remaining
// ties round-robin.
//
// Because every SilkRoute stream is sorted by its structural key, a stream
// whose home replica dies mid-flight has a well-defined frontier and its
// suffix can be re-fetched from any other healthy replica byte-for-byte:
// the healing loop in resume.go asks this file's balancer for each reopen's
// replica, away from the one the stream died on while another is usable.
// When every breaker is open the set fails closed with ErrNoHealthyReplica
// rather than emitting a partial document.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"silkroute/internal/engine"
	"silkroute/internal/obs"
)

// Backend is anything that can execute wire requests for the plan layer: a
// single Client or a ReplicaSet. Plan executors and the facade hold this
// interface so a one-replica deployment pays no extra machinery.
type Backend interface {
	// QueryResumable submits sql and returns the stream positioned before
	// the first row, with mid-stream recovery armed when spec is non-nil
	// (see Client.QueryResumable).
	QueryResumable(ctx context.Context, sql string, spec *ResumeSpec) (*Rows, error)
	// Estimate asks the remote optimizer for a query's cost estimate.
	Estimate(ctx context.Context, sql string) (engine.Estimate, error)
	// StatsEpoch probes the remote statistics epoch (see Client.StatsEpoch).
	StatsEpoch(ctx context.Context) (int64, error)
	// IdleConns reports pooled idle connections (summed over replicas).
	IdleConns() int
	// Close releases every pooled connection.
	Close() error
}

// Compile-time proof that both endpoint flavors satisfy Backend.
var (
	_ Backend = (*Client)(nil)
	_ Backend = (*ReplicaSet)(nil)
)

// replicaState is one replica's balancing state: its client plus the
// count of streams and estimates in flight on it.
type replicaState struct {
	client *Client
	name   string

	inFlight atomic.Int64
}

// ReplicaSet fans one logical database out over N replica endpoints. It
// implements Backend; construction aside, callers use it exactly like a
// Client. Safe for concurrent use.
type ReplicaSet struct {
	reps []*replicaState
	rr   atomic.Uint64 // round-robin cursor
}

// ReplicaOption configures a ReplicaSet.
type ReplicaOption func(*ReplicaSet)

// WithReplicaNames labels the replicas (typically their addresses) for
// error text; extra names are ignored, missing ones fall back to the
// index.
func WithReplicaNames(names []string) ReplicaOption {
	return func(s *ReplicaSet) {
		for i, rs := range s.reps {
			if i < len(names) {
				rs.name = names[i]
			}
		}
	}
}

// NewReplicaSet builds a set over the given endpoint clients. The clients
// should share one configuration (pool, resume, breaker) so a
// stream behaves identically wherever it lands; the facade's Dial
// guarantees that.
func NewReplicaSet(clients []*Client, opts ...ReplicaOption) *ReplicaSet {
	s := &ReplicaSet{}
	for i, c := range clients {
		s.reps = append(s.reps, &replicaState{client: c, name: fmt.Sprintf("replica %d", i)})
	}
	for _, o := range opts {
		o(s)
	}
	if m := obs.M(); m != nil {
		m.Client.ReplicasHealthy.Set(int64(len(s.reps)))
		m.Client.Replicas.Set(int64(len(s.reps)))
	}
	return s
}

// Replicas reports the configured replica count.
func (s *ReplicaSet) Replicas() int { return len(s.reps) }

// pick chooses the replica for one operation: among the usable replicas
// (breaker closed or probing, skipping excluded ones when another choice
// exists), it prefers the best availability class, then the fewest
// in-flight streams; remaining ties go round-robin (the first visited
// wins). It fails closed with ErrNoHealthyReplica when every replica is
// open-circuit.
func (s *ReplicaSet) pick(excluded func(int) bool) (int, *replicaState, error) {
	start := int(s.rr.Add(1)-1) % len(s.reps)
	best := -1
	var bestAvail int
	var bestLoad int64
	healthy := int64(0)
	for off := 0; off < len(s.reps); off++ {
		i := (start + off) % len(s.reps)
		rs := s.reps[i]
		avail := rs.client.availability()
		if avail < 2 {
			healthy++
		}
		if avail >= 2 || (excluded(i) && len(s.reps) > 1) {
			continue
		}
		load := rs.inFlight.Load()
		if best < 0 || avail < bestAvail || (avail == bestAvail && load < bestLoad) {
			best, bestAvail, bestLoad = i, avail, load
		}
	}
	if m := obs.M(); m != nil {
		m.Client.ReplicasHealthy.Set(healthy)
		m.Client.Replicas.Set(int64(len(s.reps)))
		if best < 0 {
			m.Client.NoHealthyReplica.Inc()
		}
	}
	if best < 0 {
		return 0, nil, ErrNoHealthyReplica
	}
	return best, s.reps[best], nil
}

// run executes op on the replica under the balancer's bookkeeping: the
// in-flight slot is held while op runs, and kept on success when hold is
// set, for a stream to surrender in Rows.release.
func (rs *replicaState) run(hold bool, op func(*Client) error) error {
	rs.inFlight.Add(1)
	err := op(rs.client)
	if err != nil || !hold {
		rs.inFlight.Add(-1)
	}
	return err
}

// try runs op on balancer-chosen replicas until one answers, visiting at
// most hops of them. A replica that fails with a transport-class error (or
// fails fast on its own breaker) is skipped and the next healthy one tried,
// so a dead endpoint costs one attempt, not the request.
func (s *ReplicaSet) try(ctx context.Context, hops int, op func(idx int, rs *replicaState) error) error {
	tried := make(map[int]bool, hops)
	var lastErr error
	for ; hops > 0; hops-- {
		idx, rs, err := s.pick(func(i int) bool { return tried[i] })
		if err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		if lastErr = op(idx, rs); lastErr == nil {
			return nil
		}
		if ctx.Err() != nil || errors.Is(lastErr, ErrClientClosed) {
			return lastErr
		}
		if !reroutable(lastErr) {
			// A definitive server answer: the SQL itself is at fault, and
			// every replica would answer the same.
			return lastErr
		}
		tried[idx] = true
	}
	return lastErr
}

// openOn opens one stream on the chosen replica and binds the returned
// Rows to the set, so its reopens go through the balancer.
func (s *ReplicaSet) openOn(ctx context.Context, idx int, rs *replicaState, sql string, spec *ResumeSpec) (rows *Rows, err error) {
	err = rs.run(true, func(c *Client) error {
		rows, err = c.QueryResumable(ctx, sql, spec)
		return err
	})
	if err == nil {
		rows.set, rows.Replica = s, idx
	}
	return rows, err
}

// QueryResumable opens a resumable stream on a balancer-chosen replica,
// moving on to the next healthy replica when the open fails (see try).
func (s *ReplicaSet) QueryResumable(ctx context.Context, sql string, spec *ResumeSpec) (rows *Rows, err error) {
	err = s.try(ctx, len(s.reps), func(idx int, rs *replicaState) error {
		rows, err = s.openOn(ctx, idx, rs, sql, spec)
		return err
	})
	return rows, err
}

// Estimate asks a balancer-chosen replica's optimizer for a cost
// estimate, failing over to the next healthy replica on transport-class
// errors.
func (s *ReplicaSet) Estimate(ctx context.Context, sql string) (est engine.Estimate, err error) {
	err = s.try(ctx, len(s.reps), func(_ int, rs *replicaState) error {
		return rs.run(false, func(c *Client) error {
			est, err = c.Estimate(ctx, sql)
			return err
		})
	})
	return est, err
}

// StatsEpoch probes one balancer-chosen replica's statistics epoch. Like
// Client.StatsEpoch it deliberately visits a single replica — the caches
// map a failed probe to the cold path, and hiding that behind silent
// replica hopping would mask a sick deployment.
func (s *ReplicaSet) StatsEpoch(ctx context.Context) (epoch int64, err error) {
	err = s.try(ctx, 1, func(_ int, rs *replicaState) error {
		return rs.run(false, func(c *Client) error {
			if epoch, err = c.StatsEpoch(ctx); err != nil {
				err = fmt.Errorf("%s: %w", rs.name, err)
			}
			return err
		})
	})
	return epoch, err
}

// IdleConns sums the replicas' idle pools.
func (s *ReplicaSet) IdleConns() int {
	n := 0
	for _, rs := range s.reps {
		n += rs.client.IdleConns()
	}
	return n
}

// Close closes every replica's client, returning the first error.
func (s *ReplicaSet) Close() error {
	var first error
	for _, rs := range s.reps {
		if err := rs.client.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
