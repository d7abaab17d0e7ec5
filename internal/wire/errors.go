package wire

import (
	"context"
	"errors"
	"fmt"
)

// Code classifies a server-side failure so it survives the trip across the
// network boundary: the server puts the code in the error frame, the client
// rebuilds an *Error carrying it, and errors.Is keeps working on the
// middleware side exactly as it would in-process.
type Code uint8

// The wire error codes.
const (
	// CodeUnknown is a failure the server did not classify.
	CodeUnknown Code = iota
	// CodeBadRequest is a malformed or unrecognized request frame.
	CodeBadRequest
	// CodeSQL is a SQL parse or execution error from the target engine.
	CodeSQL
	// CodeCanceled is a request the server abandoned because it was
	// canceled (its connection context ended before completion).
	CodeCanceled
	// CodeDeadline is a request that exceeded, or arrived with too
	// little of, the deadline budget it carried.
	CodeDeadline
	// CodeShutdown is a request refused because the server is draining.
	CodeShutdown
)

// String names the code.
func (c Code) String() string {
	switch c {
	case CodeBadRequest:
		return "bad-request"
	case CodeSQL:
		return "sql"
	case CodeCanceled:
		return "canceled"
	case CodeDeadline:
		return "deadline"
	case CodeShutdown:
		return "shutdown"
	}
	return "unknown"
}

// Error is a failure reported by the server over the wire protocol.
type Error struct {
	Code Code
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("wire: server error (%s): %s", e.Code, e.Msg)
}

// Is maps wire codes back onto the context sentinels (and this package's
// aliases for them), so errors.Is(err, context.Canceled) is true even when
// the cancellation happened on the far side of the network.
func (e *Error) Is(target error) bool {
	switch e.Code {
	case CodeCanceled:
		return target == ErrCanceled || target == context.Canceled
	case CodeDeadline:
		return target == ErrDeadlineExceeded || target == context.DeadlineExceeded
	case CodeShutdown:
		return target == ErrServerClosed
	}
	return false
}

// sentinel is a named error that unwraps to a context sentinel, so both
// errors.Is(err, wire.ErrCanceled) and errors.Is(err, context.Canceled)
// hold on the same error chain.
type sentinel struct {
	msg   string
	cause error
}

func (s *sentinel) Error() string { return s.msg }
func (s *sentinel) Unwrap() error { return s.cause }

// Typed client-side errors. ErrCanceled and ErrDeadlineExceeded unwrap to
// the corresponding context sentinels.
var (
	// ErrCanceled reports a request interrupted by context cancellation.
	ErrCanceled error = &sentinel{"wire: request canceled", context.Canceled}
	// ErrDeadlineExceeded reports a request that ran past its context's
	// deadline, or whose remaining budget the server refused.
	ErrDeadlineExceeded error = &sentinel{"wire: request deadline exceeded", context.DeadlineExceeded}
	// ErrClientClosed reports a request on a closed client.
	ErrClientClosed = errors.New("wire: client closed")
	// ErrServerClosed is returned by Server.Serve after Shutdown, mirroring
	// net/http's contract.
	ErrServerClosed = errors.New("wire: server closed")
	// ErrCircuitOpen reports a request refused fast because the client's
	// circuit breaker is open: the server failed Breaker.Threshold
	// consecutive times and the cooldown has not elapsed. The request never
	// touched the network, and the error is not transient: the same client
	// is not asked again, though a replica set moves on to another
	// replica.
	ErrCircuitOpen = errors.New("wire: circuit breaker open")
	// ErrNoHealthyReplica reports a replica-set request refused fast
	// because every replica's circuit breaker is open and cooling: no
	// endpoint is currently worth a network round trip. The set fails
	// closed — callers get this typed error instead of a partial document.
	ErrNoHealthyReplica = errors.New("wire: no healthy replica")
	// ErrBadResponse reports a status frame the client cannot decode:
	// empty, truncated, of the wrong kind for the request, or longer than
	// maxRequestFrame. The connection is closed; like any transport
	// failure, a replica set moves on and a resumable stream reopens. A
	// row-batch frame that is not whole rows, or holds more than
	// batchMaxRows of them, fails its stream with it, before any of the
	// frame's rows is delivered.
	ErrBadResponse = errors.New("wire: malformed response")
	// ErrStreamLost reports a tuple stream that died mid-flight — after the
	// column header, before the terminator — and could not be healed: the
	// rows already delivered cannot be trusted to be the whole result. Test
	// with errors.Is.
	ErrStreamLost = errors.New("wire: stream lost mid-flight")
	// ErrResumeExhausted reports a stream that died mid-flight and spent
	// all its reopens (resume budget n gives n+1) trying to recover. It unwraps to
	// ErrStreamLost, so errors.Is(err, ErrStreamLost) covers both the
	// resume-disabled and budget-exhausted cases.
	ErrResumeExhausted error = &sentinel{"wire: stream resume budget exhausted", ErrStreamLost}
)

// ctxSentinel converts a non-nil context error into the matching typed
// error.
func ctxSentinel(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadlineExceeded
	}
	return ErrCanceled
}
