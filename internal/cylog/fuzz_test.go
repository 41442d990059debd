package cylog

import (
	"testing"
)

// FuzzParser asserts the front end's robustness contract: no source text may
// panic the lexer, parser or analyzer — malformed programs must surface as
// errors. Programs that do parse and analyze must also construct an engine
// and survive an empty run, so the fuzzer reaches schema validation,
// stratification and plan construction, not just tokenization.
func FuzzParser(f *testing.F) {
	f.Add(incrementalProgram)
	f.Add(differentialProgram)
	f.Add("")
	f.Add("rel p(n: int).")
	f.Add(`rel p(n: int). p(X) :- p(X).`)
	f.Add(`open rel q(n: int, tag: string) key(n) asks "label".`)
	f.Add(`rel p(n: int). rel q(n: int). q(N) :- p(N), !q(N).`)
	f.Add("rel p(n: int).\np(1).\np(2).")
	f.Add(`rel p(s: string). p("\x00\"").`)
	f.Add("rel p(n: int). p(X) :- p(Y), X > Y.")
	f.Add(wideRuleProgram(maxRowSlots + 1))

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		e, err := NewEngine(prog)
		if err != nil {
			return
		}
		if _, err := e.Run(); err != nil {
			return
		}
	})
}
