package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// readArtifact decodes a BENCH file written by writeArtifact, with its
// result decoded into result.
func readArtifact(t *testing.T, path string, result any) (schema, suite string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back := struct {
		Schema, Suite string
		Result        any
	}{Result: result}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	return back.Schema, back.Suite
}

// TestSuiteSelection checks that an unknown suite, or -out without a
// single suite, is rejected before any suite measures anything, and
// that one named suite runs once and writes its artifact to -out.
func TestSuiteSelection(t *testing.T) {
	saved := suites
	t.Cleanup(func() { suites = saved })
	ran := map[string]int{}
	fake := func(name string) suite {
		return suite{name, filepath.Join(t.TempDir(), name+".json"), func(context.Context, options) (any, error) {
			ran[name]++
			return map[string]int{"runs": ran[name]}, nil
		}}
	}
	suites = []suite{fake("a"), fake("b")}

	for _, args := range [][]string{
		{"-suite", "bogus"},
		{"-suite", "all", "-out", "x.json"},
		{"-out", "x.json"},
		{"-suite", "a", "extra"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
	if len(ran) != 0 {
		t.Fatalf("a rejected selection measured: %v", ran)
	}

	path := filepath.Join(t.TempDir(), "a.json")
	if err := run([]string{"-suite", "a", "-out", path}); err != nil {
		t.Fatal(err)
	}
	if ran["a"] != 1 || ran["b"] != 0 {
		t.Fatalf("-suite a ran %v", ran)
	}
	var res map[string]int
	if schema, suite := readArtifact(t, path, &res); schema != "gsf-bench/v2" || suite != "a" || res["runs"] != 1 {
		t.Fatalf("artifact: schema %q, suite %q, result %v", schema, suite, res)
	}

	if err := run(nil); err != nil {
		t.Fatal(err)
	}
	if ran["a"] != 2 || ran["b"] != 1 {
		t.Fatalf("-suite all ran %v", ran)
	}
	for _, s := range suites {
		if schema, suite := readArtifact(t, s.out, &res); schema != "gsf-bench/v2" || suite != s.name {
			t.Fatalf("%s: schema %q, suite %q", s.out, schema, suite)
		}
	}
}
