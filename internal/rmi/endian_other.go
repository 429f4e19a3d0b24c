//go:build !(386 || amd64 || amd64p32 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv || riscv64 || wasm)

package rmi

// hostLittleEndian: see endian_little.go.
const hostLittleEndian = false
