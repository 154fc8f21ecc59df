"""Simulated model substrate: vocabulary, latency, emission oracle, models."""

from repro.models.acoustic import EmissionOracle, OracleParams, OracleStep
from repro.models.latency import LatencyEvent, LatencyProfile, SimClock, forward_ms
from repro.models.registry import (
    ModelSpec,
    get_model,
    list_models,
    model_pair,
    published_asr_configs,
)
from repro.models.simulated import (
    DecodeSession,
    SessionCursor,
    SimulatedASRModel,
    StepResult,
)
from repro.models.textlm import SimulatedTextLM, TextSession
from repro.models.vocab import Vocabulary, build_default_vocabulary

__all__ = [
    "DecodeSession",
    "EmissionOracle",
    "LatencyEvent",
    "LatencyProfile",
    "ModelSpec",
    "OracleParams",
    "OracleStep",
    "SessionCursor",
    "SimClock",
    "SimulatedASRModel",
    "SimulatedTextLM",
    "StepResult",
    "TextSession",
    "Vocabulary",
    "build_default_vocabulary",
    "forward_ms",
    "get_model",
    "list_models",
    "model_pair",
    "published_asr_configs",
]
