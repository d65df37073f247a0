package sgmldb

import (
	"context"
	"errors"
)

// Stable machine-readable codes for the sentinel error taxonomy. These
// are wire contract: cmd/sgmldbd returns them in every error body, and
// clients branch on them, so a code once shipped never changes meaning.
const (
	CodeOK            = ""                    // nil error
	CodeParse         = "PARSE"               // ErrParse
	CodeTypecheck     = "TYPECHECK"           // ErrTypecheck
	CodeOverloaded    = "OVERLOADED"          // ErrOverloaded
	CodeBudget        = "BUDGET_EXCEEDED"     // ErrBudgetExceeded
	CodeInternal      = "INTERNAL"            // ErrInternal
	CodeReadOnly      = "READ_ONLY"           // ErrReadOnly
	CodeUnknownObject = "UNKNOWN_OBJECT"      // ErrUnknownObject
	CodeCorruptLog    = "CORRUPT_LOG"         // ErrCorruptLog
	CodeUnsupported   = "UNSUPPORTED_VERSION" // ErrUnsupportedVersion
	CodeDegraded      = "DEGRADED"            // ErrDegraded
	CodeNotPrimary    = "NOT_PRIMARY"         // ErrNotPrimary
	CodeSeqTruncated  = "SEQ_TRUNCATED"       // ErrSeqTruncated
	CodeStaleTerm     = "STALE_TERM"          // ErrStaleTerm
	CodeReplicaGap    = "REPLICA_GAP"         // ErrReplicaGap
	CodeNotFollower   = "NOT_FOLLOWER"        // ErrNotFollower
	CodeCanceled      = "CANCELED"            // context.Canceled
	CodeDeadline      = "DEADLINE"            // context.DeadlineExceeded
	CodeUnknown       = "UNKNOWN"             // anything else
)

// Code classifies an error from the Database API into its stable
// machine-readable code: one distinct code per exported sentinel, plus
// CodeCanceled/CodeDeadline for context errors and CodeUnknown for
// anything outside the taxonomy. A nil error is CodeOK. The service layer
// derives HTTP status and the JSON error body from it, so clients never
// have to parse message text.
//
// ErrBudgetExceeded is checked before context errors: a query killed by
// its own WithQueryTimeout/QTimeout budget is a budget trip even when the
// caller's context expired in the same window.
func Code(err error) string {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, ErrParse):
		return CodeParse
	case errors.Is(err, ErrTypecheck):
		return CodeTypecheck
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrBudgetExceeded):
		return CodeBudget
	case errors.Is(err, ErrInternal):
		return CodeInternal
	case errors.Is(err, ErrReadOnly):
		return CodeReadOnly
	case errors.Is(err, ErrUnknownObject):
		return CodeUnknownObject
	case errors.Is(err, ErrCorruptLog):
		return CodeCorruptLog
	case errors.Is(err, ErrUnsupportedVersion):
		return CodeUnsupported
	case errors.Is(err, ErrDegraded):
		return CodeDegraded
	case errors.Is(err, ErrNotPrimary):
		return CodeNotPrimary
	case errors.Is(err, ErrSeqTruncated):
		return CodeSeqTruncated
	case errors.Is(err, ErrStaleTerm):
		return CodeStaleTerm
	case errors.Is(err, ErrReplicaGap):
		return CodeReplicaGap
	case errors.Is(err, ErrNotFollower):
		return CodeNotFollower
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	default:
		return CodeUnknown
	}
}
