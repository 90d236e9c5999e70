"""NVMe protocol substrate: commands, the submission queue, controller.

This package implements the protocol machinery that both the software NVMe
driver (mmap baseline) and the HAMS hardware NVMe engine sit on top of:
64 B command structures with opcode / PRP / LBA / length fields plus the
journal tag HAMS adds in the reserved area, a submission queue ring with
head/tail pointers and a doorbell, and a controller front-end that forwards
commands to an SSD device model (Section II-C, Figure 4b).
"""

from .commands import NVMeCommand, NVMeCompletion, NVMeOpcode
from .queues import SubmissionQueue
from .controller import NVMeController

__all__ = [
    "NVMeCommand",
    "NVMeCompletion",
    "NVMeOpcode",
    "SubmissionQueue",
    "NVMeController",
]
