package aspect

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Kind classifies a joinpoint.
type Kind uint8

const (
	// KindCall is a method call joinpoint (AspectJ: call/execution).
	KindCall Kind = iota
	// KindNew is an object construction joinpoint (AspectJ: call on a
	// constructor signature, the paper's "around(PrimeFilter.new(..))").
	KindNew
)

// String returns the pointcut-language keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCall:
		return "call"
	case KindNew:
		return "new"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// JoinPoint is a reified event in the execution of the core functionality:
// an object construction or a method call. Advice receives the joinpoint and
// may inspect the target, read or replace arguments (through proceed), and
// attach typed context for inner advice.
type JoinPoint struct {
	// Kind is the event class: construction or call.
	Kind Kind
	// Type is the logical type name of the target, e.g. "PrimeFilter".
	// It is the name the woven call site declared, not a reflected name,
	// matching AspectJ where the static type at the call site is matched.
	Type string
	// Method is the method name for KindCall joinpoints; for KindNew it is
	// the conventional name "new".
	Method string
	// Target is the receiver of a call joinpoint. It is nil for KindNew
	// (the object does not exist yet) and for static (receiver-less) calls.
	Target any
	// Args holds the call or constructor arguments as declared at the
	// woven call site.
	Args []any
	// Ctx is the execution context the call site runs under. The
	// parallelisation aspects thread an exec.Context here; the kernel
	// treats it as opaque.
	Ctx any

	// marks and vals carry advice-to-advice context (outer advice, or the
	// call site, can leave information for inner advice, e.g. "this call is
	// already remote"): registered boolean keys as bits, every other key in a
	// short list — a joinpoint carries a handful at most.
	marks Marks
	vals  []namedValue
}

type namedValue struct {
	key string
	v   any
}

// Marks is a set of registered boolean joinpoint keys, one bit each. The keys
// a call site sets on every call — "generated by aspect code", "server-side
// re-entry" — are registered once ([RegisterMark]) and then cost a bit
// operation to set and to test, where a string key costs a list entry.
type Marks uint32

var (
	markMu    sync.Mutex
	markNames atomic.Pointer[[]string] // bit i is (*markNames)[i]
)

// RegisterMark reserves a bit for the boolean key name and returns it;
// registering a name again returns the bit it already has. The key keeps
// working through Set, Value and Bool, which read and write the same bit.
// Packages register their marks in package-level variable declarations; the
// set is bounded at 32.
func RegisterMark(name string) Marks {
	markMu.Lock()
	defer markMu.Unlock()
	if m, ok := markOf(name); ok {
		return m
	}
	var names []string
	if p := markNames.Load(); p != nil {
		names = *p
	}
	if len(names) == 32 {
		panic(fmt.Sprintf("aspect: RegisterMark(%q): all 32 mark bits are taken", name))
	}
	names = append(slices.Clip(names), name) // readers keep the list they loaded
	markNames.Store(&names)
	return 1 << (len(names) - 1)
}

// markOf returns the bit registered for key, if any.
func markOf(key string) (Marks, bool) {
	if p := markNames.Load(); p != nil {
		for i, name := range *p {
			if name == key {
				return 1 << i, true
			}
		}
	}
	return 0, false
}

// Mark sets every mark in m on the joinpoint.
func (jp *JoinPoint) Mark(m Marks) { jp.marks |= m }

// Unmark clears every mark in m.
func (jp *JoinPoint) Unmark(m Marks) { jp.marks &^= m }

// Marked reports whether any mark in m is set.
func (jp *JoinPoint) Marked(m Marks) bool { return jp.marks&m != 0 }

// Signature renders the joinpoint as a pointcut-style signature, e.g.
// "call(PrimeFilter.Filter)" or "new(PrimeFilter)".
func (jp *JoinPoint) Signature() string {
	if jp.Kind == KindNew {
		return fmt.Sprintf("new(%s)", jp.Type)
	}
	return fmt.Sprintf("%s(%s.%s)", jp.Kind, jp.Type, jp.Method)
}

// Set attaches a named value to the joinpoint, visible to advice that runs
// after (inner to) the caller in the same chain. It mimics per-joinpoint
// aspect state (AspectJ idiom: percflow aspect fields). A registered mark is
// boolean: Set(key, true) sets its bit and any other value clears it.
func (jp *JoinPoint) Set(key string, v any) {
	if m, ok := markOf(key); ok {
		if b, _ := v.(bool); b {
			jp.marks |= m
		} else {
			jp.marks &^= m
		}
		return
	}
	for i := range jp.vals {
		if jp.vals[i].key == key {
			jp.vals[i].v = v
			return
		}
	}
	jp.vals = append(jp.vals, namedValue{key, v})
}

// Value reads a named value attached with Set; ok reports whether it exists.
// A registered mark exists exactly while it is set, and its value is true.
func (jp *JoinPoint) Value(key string) (v any, ok bool) {
	if m, isMark := markOf(key); isMark {
		if jp.marks&m != 0 {
			return true, true
		}
		return nil, false
	}
	for i := range jp.vals {
		if jp.vals[i].key == key {
			return jp.vals[i].v, true
		}
	}
	return nil, false
}

// Bool reads a named boolean value attached with Set, defaulting to false.
func (jp *JoinPoint) Bool(key string) bool {
	v, _ := jp.Value(key)
	b, _ := v.(bool)
	return b
}

// Arg returns argument i, or nil when out of range. Advice that knows the
// woven signature uses typed assertions on the result.
func (jp *JoinPoint) Arg(i int) any {
	if i < 0 || i >= len(jp.Args) {
		return nil
	}
	return jp.Args[i]
}

// Shadow is the static part of a joinpoint — what is known at the call site
// without executing it. Pointcuts match shadows so that advice chains can be
// computed once and cached.
type Shadow struct {
	Kind   Kind
	Type   string
	Method string
}

// shadow extracts the static shadow of the joinpoint.
func (jp *JoinPoint) shadow() Shadow {
	return Shadow{Kind: jp.Kind, Type: jp.Type, Method: jp.Method}
}
