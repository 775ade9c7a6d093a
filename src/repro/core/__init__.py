"""Pia's single-host co-simulation kernel (paper section 2.1).

The public surface of the kernel: components, ports, nets, interfaces,
the subsystem scheduler with its two-level virtual time, checkpointing,
synchronous-address machinery, and detail-level (run-level) switching.
"""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("CheckpointImage", "CheckpointStore",
                     "IncrementalCheckpointStore", "capture", "reinstate"),
                    ".checkpoint"),
    **dict.fromkeys(("DEFAULT_LEVEL", "Component", "ComponentSnapshot",
                     "FunctionComponent", "ProcessComponent",
                     "ReactiveComponent"),
                    ".component"),
    **dict.fromkeys(("CausalityError", "CheckpointError", "ConfigurationError",
                     "ConsistencyViolation", "DeadlockError",
                     "HardwareStubError", "LinkDown", "LoaderError",
                     "NodeFailure", "NoSuchCheckpointError", "PiaError",
                     "ProtocolError", "RemoteCallError", "RunLevelError",
                     "SimulationError", "SwitchpointSyntaxError",
                     "TopologyError", "TransportError"),
                    ".errors"),
    **dict.fromkeys(("Event", "EventKind", "EventQueue"), ".events"),
    "Interface": ".interface",
    "Net": ".net",
    **dict.fromkeys(("Port", "PortDirection"), ".port"),
    **dict.fromkeys(("Advance", "Command", "Receive", "ReceiveTransfer",
                     "SaveCheckpoint", "Send", "SwitchLevel", "Sync",
                     "Transfer", "TryReceive", "WaitUntil"),
                    ".process"),
    **dict.fromkeys(("DetailSlider", "Switchpoint", "SwitchpointEnvironment",
                     "SwitchpointManager", "parse_switchpoint"),
                    ".runlevel"),
    "RunControl": ".runcontrol",
    "load_run_control": ".runcontrol:load",
    "parse_run_control": ".runcontrol:parse",
    "Scheduler": ".scheduler",
    "Simulator": ".simulator",
    "Subsystem": ".subsystem",
    **dict.fromkeys(("SyncPolicy", "SyncTable"), ".sync"),
    **dict.fromkeys(("FOREVER", "PRIORITY_CONTROL", "PRIORITY_INTERRUPT",
                     "PRIORITY_SIGNAL", "PRIORITY_WAKE", "ZERO", "Timestamp"),
                    ".timestamp"),
})
