package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// testdata holds the reference digests of the simulated outputs at
// -seed 1, one file per workload, regenerated with -update-digests.
//
//go:embed testdata
var testdata embed.FS

// digests maps an output part ("smarts", "cells", ...) to the hex SHA-256
// of its JSON encoding.
type digests map[string]string

// digest returns the hex SHA-256 of v's JSON encoding. The encodings are
// canonical: struct fields in declaration order, counter ledgers with
// sorted keys, floats in Go's shortest round-trip form.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func digestFile(workload string) string { return workload + ".seed1.sha256" }

// referenceDigests returns the checked-in digests of a workload (nil if
// it has none).
func referenceDigests(workload string) (digests, error) {
	b, err := testdata.ReadFile("testdata/" + digestFile(workload))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	d := digests{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			return nil, fmt.Errorf("testdata/%s: malformed line %q", digestFile(workload), sc.Text())
		}
		d[f[1]] = f[0]
	}
	return d, sc.Err()
}

// writeDigests writes d as the reference of a workload under dir, in the
// "digest part" form sha256sum prints.
func writeDigests(dir, workload string, d digests) error {
	parts := make([]string, 0, len(d))
	for p := range d {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	var b strings.Builder
	for _, p := range parts {
		fmt.Fprintf(&b, "%s %s\n", d[p], p)
	}
	return os.WriteFile(filepath.Join(dir, digestFile(workload)), []byte(b.String()), 0o644)
}

// checker verifies the simulated outputs of every repetition: each must
// match the first repetition's, and the reference where one applies.
type checker struct {
	want digests
	// seeded names the parts that depend on -seed; the reference holds
	// them for seed 1 only. Every other part must match at any seed.
	seeded map[string]bool
	seed   uint64
	first  digests
}

// check returns how many parts of got are wrong, naming each on stderr.
func (c *checker) check(got digests) int {
	if c.first == nil {
		c.first = got
	}
	bad := 0
	for part, d := range got {
		if d != c.first[part] {
			fmt.Fprintf(os.Stderr, "perfbench: %s differs from the first repetition (%s vs %s)\n", part, d, c.first[part])
			bad++
			continue
		}
		if c.want == nil || (c.seeded[part] && c.seed != 1) {
			continue
		}
		if w, ok := c.want[part]; !ok || w != d {
			fmt.Fprintf(os.Stderr, "perfbench: %s digest %s, reference %q\n", part, d, w)
			bad++
		}
	}
	return bad
}
