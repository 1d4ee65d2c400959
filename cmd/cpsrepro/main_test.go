package main

import (
	"bytes"
	"context"
	"os"
	"testing"
)

// `cpsrepro all` prints every paper number this repository reproduces.
// testdata/all.golden was recorded from the command before its casestudy
// entry points took their calibrated inputs as arguments; never regenerate
// it from the code it checks. A change that moves a paper number shows up
// here as a testdata diff and has to say why.
func TestAllMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runAll(context.Background(), &got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d differs:\n got %q\nwant %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, golden %d", len(gotLines), len(wantLines))
}
