"""DLX system harness: core plus behavioural memories.

The gate-level core talks to instruction and data memory through ports;
this module supplies the memory behaviour during simulation (the paper's
DLX likewise keeps memory outside the de-synchronized core — see
DESIGN.md's substitution table):

* cycle-accurate runs: two evaluation passes per cycle (address
  propagates, the memory responds combinationally, logic re-settles);
* event-driven runs (the de-synchronized core): memory is serviced in
  short time slices — the response latency is far below a handshake
  cycle, mimicking an asynchronous SRAM.

``run_sync`` executes a program on the flip-flop netlist and checks the
commit trace against the golden architectural simulator; ``run_desync``
executes the de-synchronized netlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dlx.cpu import DlxCore
from repro.dlx.golden import CommitRecord, GoldenDlx, GoldenResult
from repro.dlx.isa import NOP
from repro.netlist.core import Netlist
from repro.sim.backends import make_simulator
from repro.sim.logic import int_to_bits
from repro.sim.sync import CycleSimulator
from repro.utils.errors import SimulationError


@dataclass
class RunResult:
    """Outcome of a gate-level program run."""

    cycles: int
    halted: bool
    commits: list[CommitRecord] = field(default_factory=list)
    memory: dict[int, int] = field(default_factory=dict)
    registers: dict[int, int] = field(default_factory=dict)
    toggles: dict[str, int] = field(default_factory=dict)

    def commit_values(self) -> list[tuple[int, int]]:
        """(register, value) pairs in commit order."""
        return [(c.register, c.value) for c in self.commits]


class DlxSystem:
    """A DLX core bound to program and data memory."""

    def __init__(self, core: DlxCore, program: list[int],
                 data: dict[int, int] | None = None):
        self.core = core
        self.program = list(program)
        self.initial_data = dict(data or {})
        self.golden = GoldenDlx(width=core.width,
                                n_registers=core.config.n_registers)

    # ------------------------------------------------------------------
    def golden_result(self, max_steps: int = 100_000) -> GoldenResult:
        return self.golden.run(self.program, self.initial_data, max_steps)

    def _fetch(self, address: int | None) -> int:
        if address is None:
            return NOP
        if 0 <= address < len(self.program):
            return self.program[address]
        return NOP

    # ------------------------------------------------------------------
    def run_sync(self, max_cycles: int = 2000,
                 netlist: Netlist | None = None) -> RunResult:
        """Run on the synchronous netlist with the cycle simulator."""
        target = netlist if netlist is not None else self.core.netlist
        width = self.core.width
        sim = CycleSimulator(target)
        memory = dict(self.initial_data)
        commits: list[CommitRecord] = []
        halted = False
        drain = -1  # cycles left after HALT for the pipeline to empty
        cycle = 0
        for cycle in range(max_cycles):
            # Pass 1: propagate state so the memory sees the addresses.
            sim.evaluate()
            self._service_memories(sim, memory, width)
            # Pass 2 + capture happens inside step (inputs now valid).
            sim.step()
            self._commit_memory_write(sim, memory, width)
            self._record_commit(sim, commits, cycle)
            if sim.read_vector("halted", 1) == 1:
                halted = True
                if drain < 0:
                    drain = 4  # older instructions still in flight
            if drain == 0:
                break
            if drain > 0:
                drain -= 1
        sim.evaluate()
        registers = self._read_registers(sim)
        return RunResult(cycles=cycle + 1, halted=halted, commits=commits,
                         memory=memory, registers=registers,
                         toggles=dict(sim.toggle_counts))

    def _service_memories(self, sim, memory: dict[int, int],
                          width: int) -> None:
        imem_addr = sim.read_vector("imem_addr", width)
        sim.drive_vector("imem_data", self._fetch(imem_addr), 32)
        dmem_addr = sim.read_vector("dmem_addr", width)
        rdata = memory.get(dmem_addr, 0) if dmem_addr is not None else 0
        sim.drive_vector("dmem_rdata", rdata, width)

    def _commit_memory_write(self, sim, memory: dict[int, int],
                             width: int) -> None:
        if sim.read_vector("dmem_we", 1) == 1:
            address = sim.read_vector("dmem_addr", width)
            value = sim.read_vector("dmem_wdata", width)
            if address is None or value is None:
                raise SimulationError("store with undefined address/data")
            memory[address] = value

    def _record_commit(self, sim, commits: list[CommitRecord],
                       cycle: int) -> None:
        if sim.read_vector("wb_we", 1) == 1:
            rd = sim.read_vector("wb_rd", self.core.config.reg_bits)
            value = sim.read_vector("wb_val", self.core.width)
            if rd:
                commits.append(CommitRecord(cycle, rd, value))

    def _read_registers(self, sim) -> dict[int, int]:
        return {
            i: sim.read_vector(f"r{i}_q", self.core.width)
            for i in range(1, self.core.config.n_registers)
        }

    # ------------------------------------------------------------------
    def run_desync(self, desync_netlist, cycle_time_ps: float | None = None,
                   max_cycles: int = 400,
                   slice_ps: float = 150.0) -> RunResult:
        """Run on the de-synchronized netlist on the default event
        engine.

        ``desync_netlist`` may be the bare :class:`Netlist` (then
        ``cycle_time_ps`` is required) or the
        :class:`~repro.desync.flow.DesyncResult` of a pass sequence,
        from which the cycle time defaults to the model's maximum cycle
        ratio.

        Memory is serviced every ``slice_ps``; stores commit when the
        write-enable output is observed asserted with a changed
        address/data tuple.  Register commits are reconstructed from the
        architectural register captures afterwards.
        """
        if not isinstance(desync_netlist, Netlist):
            result = desync_netlist
            desync_netlist = result.desync_netlist
            if cycle_time_ps is None:
                cycle_time_ps = result.desync_cycle_time().cycle_time
        if cycle_time_ps is None:
            raise SimulationError(
                "run_desync needs cycle_time_ps when given a bare netlist "
                "(pass the DesyncResult to default it)")
        width = self.core.width
        initial: dict[str, int] = {}
        for i, bit in enumerate(int_to_bits(self._fetch(0), 32)):
            initial[f"imem_data[{i}]"] = bit
        for i in range(width):
            initial[f"dmem_rdata[{i}]"] = 0
        sim = make_simulator(desync_netlist, initial_inputs=initial)

        def drive(base: str, value: int, bits: int, time: float) -> None:
            for i, bit in enumerate(int_to_bits(value, bits)):
                sim.set_input(f"{base}[{i}]", bit, time)

        memory = dict(self.initial_data)
        horizon = cycle_time_ps * max_cycles
        now = 0.0
        halted = False
        last_store: tuple[int, int] | None = None
        while now < horizon:
            now = now + slice_ps
            sim.run(now)
            imem_addr = sim.value_vector("imem_addr", width)
            drive("imem_data", self._fetch(imem_addr), 32, now)
            dmem_addr = sim.value_vector("dmem_addr", width)
            if dmem_addr is not None:
                drive("dmem_rdata", memory.get(dmem_addr, 0), width, now)
            if sim.value_vector("dmem_we", 1) == 1 and dmem_addr is not None:
                wdata = sim.value_vector("dmem_wdata", width)
                store = (dmem_addr, wdata if wdata is not None else 0)
                if store != last_store:
                    memory[store[0]] = store[1]
                    last_store = store
            else:
                last_store = None
            if sim.value_vector("halted", 1) == 1:
                halted = True
                sim.run(now + 5 * cycle_time_ps)  # drain the pipeline
                break
        registers = {}
        for i in range(1, self.core.config.n_registers):
            value = sim.value_vector(f"r{i}_q", width)
            registers[i] = value
        commits = self._commits_from_captures(sim)
        return RunResult(cycles=int(now / max(1.0, cycle_time_ps)),
                         halted=halted, commits=commits, memory=memory,
                         registers=registers,
                         toggles=dict(sim.toggle_counts))

    def _commits_from_captures(self, sim) -> list[CommitRecord]:
        """Reconstruct the commit order from register master captures."""
        width = self.core.width
        events: list[tuple[float, int, int]] = []
        for i in range(1, self.core.config.n_registers):
            per_bit: dict[int, list] = {}
            for bit in range(width):
                name = f"r{i}.M/b{bit}"
                per_bit[bit] = sim.captures.get(name, [])
            count = min((len(v) for v in per_bit.values()), default=0)
            previous = None
            for k in range(count):
                time = max(per_bit[bit][k].time for bit in range(width))
                bits = [per_bit[bit][k].value for bit in range(width)]
                if any(b is None for b in bits):
                    continue
                value = sum(b << j for j, b in enumerate(bits))
                if value != previous:
                    if previous is not None or value != 0:
                        events.append((time, i, value))
                    previous = value
        events.sort()
        return [CommitRecord(int(t), reg, val) for t, reg, val in events]
