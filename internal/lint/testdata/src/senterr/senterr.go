// Package senterr exercises the sentinel-error discipline analyzer.
package senterr

import (
	"errors"
	"fmt"
	"strings"

	"perdnn/internal/core"
)

func compareEq(err error) bool {
	return err == core.ErrServerDown // want "use errors.Is"
}

func compareNeq(err error) bool {
	return err != core.ErrMasterDown // want "use errors.Is"
}

func compareIs(err error) bool {
	return errors.Is(err, core.ErrServerDown) // ok: the sanctioned form
}

func compareNil() bool {
	return core.ErrServerDown == nil // ok: nil checks are not identity matching
}

func compareOther(err error) bool {
	return err == core.NotASentinel // ok: not an Err* sentinel
}

func textEq(err error) bool {
	return err.Error() == "edge server down" // want "match errors with errors.Is"
}

func textContains(err error) bool {
	return strings.Contains(err.Error(), "down") // want "strings.Contains over err.Error"
}

func textPrefix(err error) bool {
	return strings.HasPrefix(err.Error(), "edge") // want "strings.HasPrefix over err.Error"
}

func wrapWrongVerb(addr string, err error) error {
	return fmt.Errorf("edge %s: %v: %w", addr, core.ErrServerDown, err) // want "verb other than %w"
}

func wrapMissing(addr string) error {
	return fmt.Errorf("edge %s: %s", addr, core.ErrMasterDown) // want "verb other than %w"
}

func refuseWrongVerb(reason string) error {
	return fmt.Errorf("edged: %v: %s", core.ErrExecRefused, reason) // want "verb other than %w"
}

func wrapRight(addr string, err error) error {
	return fmt.Errorf("edge %s: %w: %w", addr, core.ErrServerDown, err) // ok: sentinel under %w
}
