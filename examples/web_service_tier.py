#!/usr/bin/env python
"""Enterprise scenario: a web front-end VM querying a database VM.

The paper's second motivating example: "a web service running in one VM
may need to communicate with a database server running in another VM in
order to satisfy a client transaction request."  This script implements
a tiny request/response database protocol over TCP sockets, runs a
closed-loop client through the web tier, and compares end-to-end
transaction latency with and without XenLoop.

Run:  python examples/web_service_tier.py
"""

import struct

from repro import scenarios
from repro.sim.stats import LogHistogram

DB_PORT = 5432
QUERIES_PER_REQUEST = 3  # a page render issues several queries
N_REQUESTS = 300

_HDR = struct.Struct("!I")


def run_tier(scn, label):
    sim = scn.sim
    web, db = scn.node_a, scn.node_b
    probe = LogHistogram()

    def database():
        listener = db.stack.tcp_listen(DB_PORT)
        conn = yield from listener.accept()
        while True:
            try:
                header = yield from conn.recv_exactly(_HDR.size)
            except OSError:
                return
            (qlen,) = _HDR.unpack(header)
            yield from conn.recv_exactly(qlen)
            # "execute" the query and return a 512-byte row set
            yield db.exec(20e-6)
            row = bytes(512)
            yield from conn.send(_HDR.pack(len(row)) + row)

    def web_frontend():
        conn = yield from web.stack.tcp_connect((scn.ip_b, DB_PORT))
        query = b"SELECT * FROM orders WHERE user_id = ?"
        for _ in range(N_REQUESTS):
            t0 = sim.now
            for _ in range(QUERIES_PER_REQUEST):
                yield from conn.send(_HDR.pack(len(query)) + query)
                header = yield from conn.recv_exactly(_HDR.size)
                (rlen,) = _HDR.unpack(header)
                yield from conn.recv_exactly(rlen)
            # render the page
            yield web.exec(50e-6)
            probe.record(sim.now - t0)
        yield from conn.close()

    sim.process(database())
    proc = sim.process(web_frontend())
    sim.run_until_complete(proc, timeout=120)
    print(f"{label:24s} mean transaction {probe.mean * 1e6:7.1f} us   "
          f"p99 {probe.percentile(99) * 1e6:7.1f} us   "
          f"({N_REQUESTS} requests x {QUERIES_PER_REQUEST} queries)")
    return probe


def main():
    print(f"Web tier -> DB tier, {QUERIES_PER_REQUEST} queries per client request\n")
    base = scenarios.netfront_netback()
    base.warmup()
    base_probe = run_tier(base, "netfront/netback")

    xl = scenarios.xenloop()
    xl.warmup()
    xl_probe = run_tier(xl, "xenloop")

    print(f"\nXenLoop cuts mean transaction time by "
          f"{base_probe.mean / xl_probe.mean:.1f}x -- with the web server "
          f"and database completely unmodified.")


if __name__ == "__main__":
    main()
