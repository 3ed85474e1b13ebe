//go:build purego

package kernel

// purego dispatch: the generic oracle is the default (QPPT_KERNEL=on can
// still opt back into the portable SWAR variants at runtime).
const (
	defaultEnabled = false
	dispatchMode   = "swar"
)
