// Package swallowederr is a fixture for the swallowed-error analyzer.
package swallowederr

import (
	"fmt"
	"strings"
)

func mayFail() error { return nil }

func pair() (int, error) { return 0, nil }

// fakeHash matches hash.Hash structurally (Sum + BlockSize), so its
// Write is exempt.
type fakeHash struct{}

func (fakeHash) Write(p []byte) (int, error) { return len(p), nil }
func (fakeHash) Sum(b []byte) []byte         { return b }
func (fakeHash) BlockSize() int              { return 1 }

func exercise() int {
	mayFail()      // want "result of mayFail includes an error"
	_ = mayFail()  // want "error discarded with _"
	v, _ := pair() // want "error from pair discarded with _"

	if err := mayFail(); err != nil {
		fmt.Println(err)
	}
	defer mayFail()   // deferred: nowhere for the error to go
	fmt.Println("ok") // fmt printing: exempt

	var b strings.Builder
	b.WriteString("x") // strings.Builder never fails

	var h fakeHash
	h.Write([]byte("x")) // hash.Hash Write never fails

	_ = b.String() // blanking a non-error is fine
	return v
}

// handlers: a function literal outside any function declaration is
// checked too.
var handlers = map[string]func(){
	"fail": func() {
		mayFail() // want "result of mayFail includes an error"
	},
}
