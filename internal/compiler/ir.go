// Package compiler lowers type-checked FLICK programs to executable form:
// function bodies become closure-tree IR evaluated over runtime values, and
// process declarations become core task-graph templates whose input/output
// tasks carry grammar codecs (synthesised from the program's serialisation
// annotations or bound externally).
//
// The compilation pipeline mirrors §4.3 of the paper: "Loops and branching
// are compiled to their native counterparts … Channel- and process-related
// code is translated to API calls exposed by the platform". In this
// reproduction the native counterpart is closure IR instead of C++, which
// preserves the language's bounded-work guarantees (no recursion, finite
// iteration) while staying inside one address space with the scheduler.
package compiler

import (
	"strconv"
	"strings"
	"unicode/utf8"

	"flick/internal/core"
	"flick/internal/value"
)

// Frame is one function activation: a fixed-size local slot array plus the
// node the activation emits through and the per-instance identity. Frames
// come from the executing node's call stack (callStack), so a call does not
// allocate once the stack has reached its depth.
type Frame struct {
	locals  []value.Value
	globals []value.Value // shared per deployed program
	// node is the compute node sends inside the activation emit through
	// (nil outside a task graph: sends are dropped).
	node   *core.NodeCtx
	instID int64
	// route, when non-nil, is the instance's backend-topology router
	// (core.Instance.Router): the `hash(k) mod len(backends)` idiom routes
	// through it (consistent-hash ring) instead of plain modulo, so a
	// live backend change moves ~1/(B+1) of the key space. Nil preserves
	// mod-B over the compiled channel-array capacity.
	route  func(hash int64) int
	ret    value.Value
	retSet bool
	stk    *callStack
}

// callStack is the activation storage of one compiled node in one
// instance: a root frame for the node's per-item code and one reusable
// frame per call depth. A node runs on one worker at a time, so its stack
// is never shared. Frames keep their locals' backing arrays, so a call
// allocates only the first time it reaches a depth, or needs more locals
// than that depth has held before.
type callStack struct {
	root   Frame
	frames []*Frame
	depth  int
}

// rootFrame resets and returns the stack's root frame for one value
// processed by the node behind ctx.
func (s *callStack) rootFrame(globals []value.Value, ctx *core.NodeCtx) *Frame {
	inst := ctx.Instance()
	fr := &s.root
	*fr = Frame{globals: globals, node: ctx, instID: inst.ID(), route: inst.Router(), stk: s}
	return fr
}

// exprFn evaluates an expression.
type exprFn func(fr *Frame) value.Value

// stmtFn executes a statement.
type stmtFn func(fr *Frame)

// compiledFun is an executable FLICK function.
type compiledFun struct {
	name    string
	nParams int
	nLocals int // params + lets (maximum over all paths)
	body    []stmtFn
	// fresh reports that the result is always a record built by a
	// constructor as the body's last statement. A constructor owns every
	// field it stores, so callers that must own the result can skip the
	// copy.
	fresh bool
}

// enter pushes an activation of f called from parent and returns its frame,
// with every local Null. The caller stores the arguments into
// fr.locals[:f.nParams] (evaluating them in parent, which may push and pop
// deeper frames) and then calls exec.
func (f *compiledFun) enter(parent *Frame) *Frame {
	stk := parent.stk
	if stk == nil {
		// A root frame built outside a compiled node (globals, tests,
		// CallFunction): give it a stack its callees share.
		stk = &callStack{}
		parent.stk = stk
	}
	if stk.depth == len(stk.frames) {
		stk.frames = append(stk.frames, &Frame{})
	}
	fr := stk.frames[stk.depth]
	stk.depth++
	locals := fr.locals
	if cap(locals) < f.nLocals {
		locals = make([]value.Value, f.nLocals)
	} else {
		locals = locals[:f.nLocals]
		clear(locals)
	}
	*fr = Frame{
		locals:  locals,
		globals: parent.globals,
		node:    parent.node,
		instID:  parent.instID,
		route:   parent.route,
		stk:     stk,
	}
	return fr
}

// exec runs f's body in fr, which enter returned, pops the frame and
// returns the result.
func (f *compiledFun) exec(fr *Frame) value.Value {
	for _, s := range f.body {
		s(fr)
	}
	fr.stk.depth--
	return fr.ret
}

// call invokes a compiled function with already-evaluated arguments.
func (f *compiledFun) call(parent *Frame, args []value.Value) value.Value {
	fr := f.enter(parent)
	copy(fr.locals, args)
	return f.exec(fr)
}

// ChanRef is the runtime representation of a scalar channel value: the
// out-edge index of the compute node executing the current frame.
type ChanRef struct {
	Out int
}

// chanRefValue wraps a ChanRef as a value.
func chanRefValue(out int) value.Value { return value.Opaque(ChanRef{Out: out}) }

// isChanList reports whether v is a channel-array value (a list of
// ChanRefs) — the shape `len(backends)` sees in both pipeline-stage
// arguments (compile-time chanEnv constants) and function bodies (the
// array passed as an argument).
func isChanList(v value.Value) bool {
	if v.Kind != value.KindList || len(v.L) == 0 {
		return false
	}
	_, ok := v.L[0].X.(ChanRef)
	return ok
}

// --- builtin implementations ---

// hashValue is the `hash` builtin: FNV-1a over the value's byte content.
func hashValue(v value.Value) int64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b []byte) {
		for _, x := range b {
			h ^= uint64(x)
			h *= prime
		}
	}
	switch v.Kind {
	case value.KindString:
		mix([]byte(v.S))
	case value.KindBytes:
		mix(v.B)
	case value.KindInt, value.KindBool:
		u := uint64(v.I)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime
			u >>= 8
		}
	case value.KindRecord, value.KindList:
		for _, f := range v.L {
			h ^= uint64(hashValue(f))
			h *= prime
		}
	}
	return int64(h & 0x7fffffffffffffff) // keep mod-friendly (non-negative)
}

// lenValue is the `len` builtin.
func lenValue(v value.Value) int64 {
	switch v.Kind {
	case value.KindString:
		return int64(len(v.S))
	case value.KindBytes:
		return int64(len(v.B))
	case value.KindList:
		return int64(len(v.L))
	case value.KindDict:
		return int64(v.D.Len())
	}
	return 0
}

// stringToInt is the `string_to_int` builtin: strconv.ParseInt of the
// text with surrounding white space trimmed, where malformed input yields
// 0 (grammar default behaviour, §4.2).
func stringToInt(s string) int64 { return parseDecimal(s) }

// valueToInt applies stringToInt to a string or bytes value. Byte views
// are parsed in place, without first copying them into a string.
func valueToInt(v value.Value) int64 {
	switch v.Kind {
	case value.KindString:
		return parseDecimal(v.S)
	case value.KindBytes:
		return parseDecimal(v.B)
	}
	return 0
}

// parseDecimal parses ASCII text like
// strconv.ParseInt(strings.TrimSpace(s), 10, 64), yielding 0 on error.
// Text with a non-ASCII byte that the fast path rejects takes that exact
// slow path, since strings.TrimSpace also trims Unicode white space.
func parseDecimal[T string | []byte](s T) int64 {
	for len(s) > 0 && asciiSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && asciiSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	text := s
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			for j := 0; j < len(text); j++ {
				if text[j] >= utf8.RuneSelf {
					n, err := strconv.ParseInt(strings.TrimSpace(string(text)), 10, 64)
					if err != nil {
						return 0
					}
					return n
				}
			}
			return 0
		}
		d := uint64(c - '0')
		if n > (limit-d)/10 {
			return 0 // out of range, as ParseInt reports it
		}
		n = n*10 + d
	}
	if len(s) == 0 {
		return 0
	}
	if neg {
		return int64(-n)
	}
	return int64(n)
}

// asciiSpace reports the ASCII bytes unicode.IsSpace accepts.
func asciiSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// splitWords is the `split_words` builtin.
func splitWords(s string) value.Value {
	fields := strings.Fields(s)
	out := make([]value.Value, len(fields))
	for i, f := range fields {
		out[i] = value.Str(f)
	}
	return value.List(out...)
}

// dictGet reads a dict entry, yielding Null on miss (compared as None).
func dictGet(d value.Value, key value.Value) value.Value {
	if d.Kind != value.KindDict {
		return value.Null
	}
	v, ok := d.D.Get(key.AsString())
	if !ok {
		return value.Null
	}
	return v
}

// binOp implements the arithmetic/comparison/boolean operators over runtime
// values. Type checking has already guaranteed operand kinds.
func binAdd(a, b value.Value) value.Value {
	if a.Kind == value.KindString || a.Kind == value.KindBytes ||
		b.Kind == value.KindString || b.Kind == value.KindBytes {
		return value.Str(a.AsString() + b.AsString())
	}
	return value.Int(a.I + b.I)
}

func binDiv(a, b value.Value) value.Value {
	if b.I == 0 {
		return value.Int(0) // checked language: division by zero yields 0
	}
	return value.Int(a.I / b.I)
}

func binMod(a, b value.Value) value.Value {
	if b.I == 0 {
		return value.Int(0)
	}
	return value.Int(a.I % b.I)
}

func compareOrdered(a, b value.Value) int {
	if a.Kind == value.KindInt || a.Kind == value.KindBool {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
	return strings.Compare(a.AsString(), b.AsString())
}
