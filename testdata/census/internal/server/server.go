// Package server stands for the module's untrusted server: the root
// package re-exports its Engine, but an engine method is not client API.
package server

// Engine is re-exported by the root package.
type Engine struct{}

// Wrapper has no non-test caller, and the root's alias does not exempt it.
func (*Engine) Wrapper() {}
