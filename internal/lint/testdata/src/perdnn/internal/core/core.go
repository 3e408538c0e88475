// Package core stubs perdnn/internal/core for analyzer fixtures: the
// sentinel errors under the senterr contract.
package core

import "errors"

var (
	ErrServerDown  = errors.New("edge server down")
	ErrMasterDown  = errors.New("master unreachable")
	ErrExecRefused = errors.New("exec request outside the model's bounds")
)

// NotASentinel is package-level but not an Err* sentinel.
var NotASentinel = errors.New("not a sentinel")
