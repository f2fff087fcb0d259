"""ivfuse: text-guided infrared/visible image fusion at desk scale.

Layers, bottom up: a float64 autodiff tensor core (tensor, optim,
checkpoint), transformer blocks (blocks), semantic generation behind
provider fixtures (sig, providers), the masked cross-attention and gated
fusion stages (mgca, tdaf), the assembled network (model), training losses
and loop (losses, training), fusion-quality metrics (metrics), and the
dataset/IO/CLI surface (dataset, imgio, config, cli).
"""

from .blocks import CrossAttention, Encoder, PatchEmbed, PatchUnembed, TransformerBlock
from .checkpoint import load_checkpoint, restore_parameters, save_checkpoint
from .dataset import ImagePair, generate_dataset, load_pairs
from .imgio import load_image, save_image
from .losses import LossWeights, color_loss, gradient_loss, intensity_loss, ssim_loss, total_loss
from .metrics import entropy, evaluate_dataset, qabf, scd, std_dev, vif_fusion
from .mgca import FeatureBundle, cross_reconstruct, encode_streams
from .model import FusionModel, ModelConfig, fuse
from .optim import Parameter, adamw_step, zero_grads
from .providers import HashTextEncoder, LookupCaptioner, PlantedRegionDenoiser, Rect
from .sig import (MaskSemantics, MaskSettings, SemanticGenerator, TextDescription,
                  TextSemantics, embed_text, mask_from_noise_diff, strip_keyword,
                  union_masks)
from .tdaf import GateMaps, compute_gates, gated_fusion, spatial_attention
from .tensor import Tensor, no_grad
from .training import TrainConfig, sample_crop, train

__version__ = "0.1.0"
