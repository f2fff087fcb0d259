"""End-to-end fusion of one synthetic pair, saving every intermediate image.

Generates a scene (textured visible, hot-region infrared), derives the
semantics with the fixture providers, runs the full network, and writes the
inputs, the mask preview, and the fused result under demos/out/.
"""

from pathlib import Path

from ivfuse.dataset import synth_pair
from ivfuse.imgio import save_image
from ivfuse.model import FusionModel, ModelConfig, fuse
from ivfuse.dataset import ImagePair
from ivfuse.providers import HashTextEncoder, PlantedRegionDenoiser
from ivfuse.sig import MaskSettings, SemanticGenerator
from ivfuse.providers import LookupCaptioner
from ivfuse.sig import image_content_hash

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

vis, ir, hot = synth_pair(seed=42, size=(96, 96))
pair = ImagePair("demo", vis, ir)
caption = "a car near the crossing"
generator = SemanticGenerator(
    LookupCaptioner({image_content_hash(vis): caption}),
    HashTextEncoder(64),
    PlantedRegionDenoiser({caption: hot}, amplitude=0.8),
    MaskSettings(vocabulary=("car",)),
)
t = generator.caption_for(pair.i_vis)
mask = generator.mask_for_pair(pair.i_vis, pair.i_ir, pair.pair_id, caption=t)
text = generator.text_for_pair(pair.i_vis, caption=t)
print("caption:", t.text)
print("mask covers", int(mask.m.sum()), "px; text semantics", text.embeddings.shape)

model = FusionModel(ModelConfig(), variant="full", seed=0)
fused = fuse(model, pair, (mask, text))
print("fused image:", fused.shape, "range [%.3f, %.3f]" % (fused.min(), fused.max()))

save_image(vis, out_dir / "visible.png")
save_image(ir, out_dir / "infrared.png")
save_image(mask.m[None], out_dir / "mask.png")
save_image(fused, out_dir / "fused_untrained.png")
print("wrote", ", ".join(p.name for p in sorted(out_dir.glob("*.png"))), "->", out_dir)
print("(untrained weights; see 05_training_overfit.py for a trained model)")
