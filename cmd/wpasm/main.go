// Command wpasm is the workbench for the simulator's assembly language:
// it assembles a source file and can disassemble it, run it on the
// functional simulator, or print the first instructions of its dynamic
// trace — handy when developing new workloads.
//
// Usage:
//
//	wpasm prog.s                      # assemble, report size
//	wpasm -disasm prog.s              # print the disassembly
//	wpasm -run prog.s                 # run functionally, print output/exit
//	wpasm -trace 40 prog.s            # print the first 40 dynamic records
//	wpasm -run -max-insts 1000 prog.s # bound the run
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	var (
		disasm   = flag.Bool("disasm", false, "print the disassembly")
		run      = flag.Bool("run", false, "execute on the functional simulator")
		traceN   = flag.Int("trace", 0, "print the first N dynamic instruction records")
		maxInsts = flag.Uint64("max-insts", 100_000_000, "functional instruction budget")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wpasm [flags] file.s")
		flag.PrintDefaults()
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(string(src), asm.WithBase(workloads.StandardCodeBase))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("assembled %d instructions, base %#x, entry %#x, %d symbols\n",
		len(prog.Insts), prog.Base, prog.Entry, len(prog.Symbols))

	if *disasm {
		fmt.Print(prog.Disassemble())
	}

	if *traceN > 0 {
		cpu := functional.New(prog, mem.New(), workloads.StandardStackTop)
		var di trace.DynInst
		for i := 0; i < *traceN && !cpu.Halted(); i++ {
			if err := cpu.Step(&di); err != nil {
				fmt.Printf("  [stopped: %v]\n", err)
				break
			}
			line := fmt.Sprintf("%08x  %-28s", di.PC, di.In.String())
			if di.HasAddr {
				line += fmt.Sprintf("  mem=%#x", di.MemAddr)
			}
			if di.In.Op.IsControl() {
				line += fmt.Sprintf("  -> %#x", di.NextPC)
			}
			fmt.Println(line)
		}
	}

	if *run {
		cpu := functional.New(prog, mem.New(), workloads.StandardStackTop)
		n, err := cpu.Run(*maxInsts)
		fmt.Printf("executed %d instructions\n", n)
		if len(cpu.Output) > 0 {
			fmt.Printf("output:\n%s", cpu.Output)
		}
		switch {
		case err != nil:
			fmt.Printf("stopped: %v\n", err)
			os.Exit(1)
		case cpu.Halted():
			fmt.Printf("exit code %d\n", cpu.ExitCode())
		default:
			fmt.Println("instruction budget exhausted")
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wpasm:", err)
	os.Exit(1)
}
