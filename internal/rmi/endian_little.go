//go:build 386 || amd64 || amd64p32 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv || riscv64 || wasm

package rmi

// hostLittleEndian reports whether the host's memory layout of int32, int64
// and float64 is the wire's (little-endian), which is what lets the binary
// codec copy arrays as one block. Architectures not listed here take the
// portable element loop, which is correct everywhere.
const hostLittleEndian = true
