"""Simulated model substrate: vocabulary, latency, emission oracle, models."""

from repro.models.acoustic import EmissionOracle, OracleParams, StepResult
from repro.models.latency import LatencyEvent, LatencyProfile, SimClock, forward_ms
from repro.models.registry import (
    ModelSpec,
    get_model,
    list_models,
    model_pair,
    published_asr_configs,
)
from repro.models.simulated import DecodeSession, SessionCursor, SimulatedASRModel
from repro.models.textlm import SimulatedTextLM
from repro.models.vocab import Vocabulary, build_default_vocabulary

__all__ = [
    "DecodeSession",
    "EmissionOracle",
    "LatencyEvent",
    "LatencyProfile",
    "ModelSpec",
    "OracleParams",
    "SessionCursor",
    "SimClock",
    "SimulatedASRModel",
    "SimulatedTextLM",
    "StepResult",
    "Vocabulary",
    "build_default_vocabulary",
    "forward_ms",
    "get_model",
    "list_models",
    "model_pair",
    "published_asr_configs",
]
