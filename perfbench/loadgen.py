"""Open-loop HTTP load generator over keep-alive connections.

Request ``i`` is due at ``start + i / rate`` whatever happened to the
requests before it (independent users, not callers waiting on replies).
Each of at most two threads owns one keep-alive ``http.client``
connection and takes the next due request as soon as it is free, so a
slow reply delays later requests only when both connections are busy —
and that wait is counted, because every latency is measured from the
request's due time, not from when it was sent.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from workloads import Request


@dataclass
class Reply:
    request: Request
    status: int              # 0 when the request raised
    body: bytes
    latency_s: float         # completion minus due time
    late_s: float            # send time minus due time
    done_s: float            # completion, relative to the loop start
    error: Optional[str] = None


def run_open_loop(host: str, port: int, requests: Sequence[Request],
                  rate: float, connections: int = 2,
                  timeout_s: float = 30.0) -> List[Reply]:
    """Send ``requests`` at ``rate`` per second; replies in request order."""
    replies: List[Optional[Reply]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(requests):
                        return
                    cursor[0] += 1
                request = requests[index]
                due = start + index / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                try:
                    conn.request("GET", request.target)
                    response = conn.getresponse()
                    body = response.read()
                    status, error = response.status, None
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection(host, port,
                                                      timeout=timeout_s)
                    body, status, error = b"", 0, repr(exc)
                done = time.perf_counter()
                replies[index] = Reply(request, status, body, done - due,
                                       sent - due, done - start, error)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, name="loadgen-%d" % i)
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies  # type: ignore[return-value]
