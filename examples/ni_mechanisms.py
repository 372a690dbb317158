#!/usr/bin/env python3
"""Drive the three NI mechanisms directly at the communication layer.

Uses the VMMC API the way the protocol does: asynchronous remote
deposits, remote fetches served by NI firmware, and NI locks whose
distributed queue lives entirely in the (simulated) LANai — no host
processor on the far side ever runs a handler.

    python examples/ni_mechanisms.py
"""

from repro.hw import Machine, MachineConfig
from repro.vmmc import NILockManager, PerfMonitor, VMMC


def main():
    machine = Machine(MachineConfig())
    vmmc = VMMC(machine)
    monitor = PerfMonitor(machine)
    locks = NILockManager(vmmc)
    sim = machine.sim
    log = []

    def deposits():
        """Remote deposit: sender-initiated, asynchronous."""
        t0 = sim.now
        yield from vmmc.send(0, 1, size=64, payload="control word")
        log.append(f"async deposit posted in {sim.now - t0:.1f} us "
                   f"(the sender only pays the post overhead)")
        t0 = sim.now
        yield from vmmc.send(0, 1, size=4096, await_delivery=True)
        log.append(f"synchronous 4 KB deposit delivered in "
                   f"{sim.now - t0:.1f} us")

    def fetches():
        """Remote fetch: receiver-initiated, firmware-served."""
        yield sim.timeout(1000.0)
        t0 = sim.now
        yield from vmmc.fetch(2, 3, size=4096)
        log.append(f"remote fetch of a 4 KB page took {sim.now - t0:.1f} us "
                   f"(paper: ~110 us) — node 3's processors were never "
                   f"involved")

    def lockers(node, hold_us):
        yield sim.timeout(2000.0)
        t0 = sim.now
        ts = yield from locks.acquire(node, lock_id=7)
        log.append(f"node {node} acquired NI lock 7 after "
                   f"{sim.now - t0:.1f} us (timestamp payload: {ts!r})")
        yield sim.timeout(hold_us)
        yield from locks.release(node, 7, ts=f"clock-of-node-{node}")

    sim.process(deposits())
    sim.process(fetches())
    for node, hold in ((0, 50.0), (2, 30.0), (3, 10.0)):
        sim.process(lockers(node, hold))
    sim.run()

    for line in log:
        print(line)
    print(f"\nfirmware-handled packets (never entered a host delivery "
          f"path): {sum(nic.fw_packets for nic in machine.nics)}")
    print(f"total packets monitored: {monitor.total_packets}, "
          f"by kind: {monitor.packets_by_kind}")


if __name__ == "__main__":
    main()
