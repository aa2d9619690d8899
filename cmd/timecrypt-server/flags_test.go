package main

import (
	"bufio"
	"maps"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestOperationsFlagTableMatchesServer keeps the server flag table in
// docs/OPERATIONS.md honest: the flags the real binary registers (read
// from its -h output, via the TestMain re-exec hook) must be exactly the
// flags the table documents — no undocumented flag, no stale row.
func TestOperationsFlagTableMatchesServer(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "TIMECRYPT_SERVER_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("timecrypt-server -h: %v\n%s", err, out)
	}
	registered := map[string]bool{}
	usageLine := regexp.MustCompile(`^  -(\S+)`)
	for _, line := range strings.Split(string(out), "\n") {
		// The test binary shares flag.CommandLine with the testing
		// package; its -test.* flags are not the server's.
		if m := usageLine.FindStringSubmatch(line); m != nil && !strings.HasPrefix(m[1], "test.") {
			registered[m[1]] = true
		}
	}

	documented := operationsFlagTable(t)
	if len(registered) == 0 || len(documented) == 0 {
		t.Fatalf("parsed %d registered and %d documented flags; the usage or table format changed", len(registered), len(documented))
	}
	for _, name := range slices.Sorted(maps.Keys(registered)) {
		if !documented[name] {
			t.Errorf("flag -%s is registered but missing from the docs/OPERATIONS.md server flag table", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(documented)) {
		if !registered[name] {
			t.Errorf("docs/OPERATIONS.md documents -%s, which the server does not register", name)
		}
	}
}

// operationsFlagTable returns the flag names in the first table under
// docs/OPERATIONS.md's "## Single server" heading.
func operationsFlagTable(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	row := regexp.MustCompile("^\\| `-([^`]+)` \\|")
	flags := map[string]bool{}
	inSection, inTable := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## "):
			if inSection {
				return flags
			}
			inSection = line == "## Single server"
		case !inSection:
		case strings.HasPrefix(line, "|"):
			inTable = true
			if m := row.FindStringSubmatch(line); m != nil {
				flags[m[1]] = true
			}
		case inTable:
			return flags
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return flags
}
