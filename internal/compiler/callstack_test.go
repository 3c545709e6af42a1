package compiler

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"flick/internal/lang"
	"flick/internal/proto/hadoop"
	"flick/internal/value"
)

// reentrantSrc nests user-function calls in argument position (each
// callee's frame is pushed before its arguments run deeper calls) and runs
// map and fold inside functions, so one evaluation reaches well past the
// call stack's initial depth and revisits every depth many times.
const reentrantSrc = `
fun sq: (x: integer) -> (integer)
    let y = x * x
    y

fun add3: (a: integer, b: integer, c: integer) -> (integer)
    let s = a + b
    s + c

fun wlen: (w: string) -> (integer)
    let n = len(w)
    add3(sq(n), sq(n + 1), n)

fun plus: (acc: integer, x: integer) -> (integer)
    let t = add3(acc, sq(x mod 5), x)
    t

fun score: (s: string) -> (integer)
    let ws = split_words(s)
    let lens = map(wlen, ws)
    fold(plus, sq(2), lens)

fun tag: (w: string) -> (string)
    let n = score(w)
    to_upper(w) + ":" + int_to_string(n)

fun outer: (s: string, t: string) -> (integer)
    let k = score(t)
    add3(score(s), k, sq(add3(score(s) mod 7, len(map(tag, split_words(t))), k mod 3)))
`

// TestCallStackReentrancy checks frame reuse against golden results
// recorded with per-call heap frames: results must not change when frames
// come from a node's call stack, including when one frame's arguments are
// evaluated through deeper calls that reuse the depths above it.
func TestCallStackReentrancy(t *testing.T) {
	prog, err := Compile(reentrantSrc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		s, t  string
		outer int64
		tag   string
	}{
		{"a bb ccc", "dddd e", 135, "A BB CCC:63"},
		{"", "x", 64, ":4"},
		{"the quick brown fox", "jumps over the lazy dog", 511, "THE QUICK BROWN FOX:212"},
	}
	// One root frame for every call, as a compiled node reuses its stack
	// across messages.
	var root Frame
	for round := 0; round < 3; round++ {
		for _, g := range golden {
			got := prog.funs["outer"].call(&root, []value.Value{value.Str(g.s), value.Str(g.t)})
			if got.AsInt() != g.outer {
				t.Fatalf("round %d: outer(%q, %q) = %d, want %d", round, g.s, g.t, got.AsInt(), g.outer)
			}
			tag := prog.funs["tag"].call(&root, []value.Value{value.Str(g.s)})
			if tag.AsString() != g.tag {
				t.Fatalf("round %d: tag(%q) = %q, want %q", round, g.s, tag.AsString(), g.tag)
			}
		}
	}
	if root.stk == nil || len(root.stk.frames) < 5 {
		t.Fatalf("call stack never grew past its initial size: %+v", root.stk)
	}
	if root.stk.depth != 0 {
		t.Fatalf("call stack depth %d after every call returned, want 0", root.stk.depth)
	}
}

// TestFoldtCombineAllocs pins the allocations of one foldt combine on an
// existing key (Listing 3): the order function, the accumulator lookup
// and string_to_int on the wire value run without allocating; what is
// left is the combine function's own work — the constructed record's
// field slice, the owned copy of its key, and int_to_string of a count of
// 100 or more. The constructor's result is owned already, so it is not
// copied again.
func TestFoldtCombineAllocs(t *testing.T) {
	prog, err := Compile(lang.Listing3, Config{
		ArraySizes: map[string]int{"mappers": 2},
		Codecs:     map[string]CodecPair{"kv": {Decode: hadoop.Codec, Encode: hadoop.Codec}},
	})
	if err != nil {
		t.Fatal(err)
	}
	order, combine := prog.funs["key_of"], prog.funs["combine"]
	if !combine.fresh {
		t.Fatal("combine ends in a kv constructor but is not marked fresh")
	}
	// A pair as the decoder delivers it: byte views.
	pair := prog.Desc("kv").New()
	pair.SetField("key", value.Bytes([]byte("word-0001")))
	pair.SetField("value", value.Bytes([]byte("7")))
	st := &foldtState{slot: map[string]int{}}
	var fr Frame
	const warm = 20 // enough for the count to pass 100
	for i := 0; i < warm; i++ {
		st.add(&fr, order, combine, pair)
	}
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() { st.add(&fr, order, combine, pair) })
	if allocs != 3 {
		t.Fatalf("foldt combine on an existing key allocates %.2f/pair, want 3", allocs)
	}
	// AllocsPerRun calls the function once more to warm up.
	want := strconv.Itoa(7 * (warm + runs + 1))
	if len(st.acc) != 1 || st.acc[0].Field("value").AsString() != want {
		t.Fatalf("accumulator = %v, want one pair with value %s", st.acc, want)
	}
}

// TestParseDecimalMatchesStrconv holds string_to_int's in-place parser to
// the strconv.ParseInt(strings.TrimSpace(s), 10, 64) behaviour it
// replaces, over edge cases and random strings of digits, signs, spaces
// and a few non-ASCII bytes.
func TestParseDecimalMatchesStrconv(t *testing.T) {
	ref := func(s string) int64 {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return 0
		}
		return n
	}
	cases := []string{
		"", " ", "0", "-0", "+0", "+", "-", "42", " 42 ", "\t-7\n", "007",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "99999999999999999999", "1_000", "0x10", "1e3",
		"12 34", "--1", "+-1", " 12 ", " -5", "1 ", "١٢",
		"\v\f\r 3",
	}
	alphabet := []string{"0", "1", "5", "9", "-", "+", " ", "\t", "x", "_", " ", " "}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for j := rng.Intn(22); j > 0; j-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		cases = append(cases, sb.String())
	}
	for _, s := range cases {
		want := ref(s)
		if got := valueToInt(value.Str(s)); got != want {
			t.Fatalf("string %q: got %d, want %d", s, got, want)
		}
		if got := valueToInt(value.Bytes([]byte(s))); got != want {
			t.Fatalf("bytes %q: got %d, want %d", s, got, want)
		}
	}
}
