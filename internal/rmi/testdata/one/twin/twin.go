// Package twin (one of two with this name) declares a Frame for the codec
// test of registered types that share their short name.
package twin

type Frame []float64
