package rmi_test

import (
	"fmt"

	"aspectpar/internal/rmi"
)

// ExampleDial is the raw transport round trip beneath everything par
// builds: a server exports a dispatch function by name, a client dials,
// looks the export up and invokes it. Options (WithClock, WithCodec,
// WithSession...) fix every connection knob at Dial time.
func ExampleDial() {
	srv := rmi.NewServer()
	srv.Export("greeter", func(method string, args []any) ([]any, error) {
		return []any{fmt.Sprintf("%s, %s!", method, args[0])}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Println("listen:", err)
		return
	}
	defer srv.Close()

	cli, err := rmi.Dial(addr)
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	defer cli.Close()

	stub, err := cli.Lookup("greeter")
	if err != nil {
		fmt.Println("lookup:", err)
		return
	}
	res, err := stub.Invoke("Hello", "world")
	if err != nil {
		fmt.Println("invoke:", err)
		return
	}
	fmt.Println(res[0])
	// Output: Hello, world!
}
