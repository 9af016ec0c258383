"""Forecast-service process for the ``service-mix`` workload.

Usage: ``python -m bench.server JOURNAL``.  Prints the bound port on one
line once it serves, and stops when its standard input closes, so it
cannot outlive the load generator that started it.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

from repro.service import ForecastService

from .service_mix import build_cascade


async def serve(journal: Path) -> None:
    service = ForecastService(build_cascade(journal), refine=False)
    _, port = await service.start("127.0.0.1", 0)
    print(port, flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(None,
                                                         sys.stdin.read)
    finally:
        await service.stop()


if __name__ == "__main__":
    asyncio.run(serve(Path(sys.argv[1])))
