"""GridFTP / globus-url-copy substrate.

Emulates the transfer tool the paper drives:

* :mod:`repro.gridftp.transfer` — transfer specifications and byte
  accounting (the ``s'`` bookkeeping of Algorithms 1-3).
* :mod:`repro.gridftp.client` — the `globus-url-copy` process model:
  ``nc`` single-core processes with ``np`` TCP streams each, and the
  restart-cost model behind the paper's observed-vs-best-case gap.
* :mod:`repro.gridftp.globus` — Globus transfer service policy (default
  parameters).
* :mod:`repro.gridftp.diskio` — extension: disk-to-disk transfers over a
  heterogeneous file-size mix with pipelining (paper future work 1).
"""

from repro.gridftp.transfer import TransferSpec, TransferState
from repro.gridftp.client import ClientModel, RestartModel
from repro.gridftp.globus import GlobusPolicy
from repro.gridftp.diskio import DiskSpec, FileSet, disk_rate_cap_mbps

__all__ = [
    "TransferSpec",
    "TransferState",
    "ClientModel",
    "RestartModel",
    "GlobusPolicy",
    "DiskSpec",
    "FileSet",
    "disk_rate_cap_mbps",
]
