package rmi

import "unsafe"

// rawBytes views a fixed-width slice's memory as bytes — the one use of
// unsafe in the codec, and in one direction only: a typed slice is always
// aligned for byte access, while a frame offset is not aligned for typed
// access (and checkptr says so under -race), so bytes are never
// reinterpreted as elements. Encoding appends this view; decoding copies
// frame bytes into the view of a freshly made slice.
func rawBytes[T fixedWidth](x []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), len(x)*int(unsafe.Sizeof(x[0])))
}
